//! Open-loop replay in virtual time.
//!
//! Arrivals follow their own schedule whatever the server does, so a slow
//! drain delays every query behind it and the delay is measured, not
//! hidden (no coordinated omission). The server admits everything that
//! has arrived, up to `window` queries, serves the batch, and its clock
//! advances by the `ref` seconds the batch cost; a query's latency is its
//! batch's completion minus its own arrival. Arrivals are virtual, so the
//! generator is never late.

/// What one replay measured.
pub struct Replay {
    /// Latency per query, in arrival order, seconds.
    pub latencies_s: Vec<f64>,
    pub batches: usize,
}

/// Replay `arrivals_s` (ascending) against `serve`, which is handed the
/// index range of the admitted batch and returns what serving it cost in
/// `ref` seconds.
pub fn replay(
    arrivals_s: &[f64],
    window: usize,
    mut serve: impl FnMut(std::ops::Range<usize>) -> f64,
) -> Replay {
    assert!(window > 0, "admission window must be positive");
    let mut latencies_s = Vec::with_capacity(arrivals_s.len());
    let mut now_s = 0.0f64;
    let mut batches = 0usize;
    let mut i = 0usize;
    while i < arrivals_s.len() {
        // Server free and nothing queued: idle until the next arrival.
        now_s = now_s.max(arrivals_s[i]);
        let lo = i;
        while i < arrivals_s.len() && arrivals_s[i] <= now_s && i - lo < window {
            i += 1;
        }
        now_s += serve(lo..i);
        latencies_s.extend(arrivals_s[lo..i].iter().map(|&at| now_s - at));
        batches += 1;
    }
    Replay {
        latencies_s,
        batches,
    }
}

/// Mean wait of the last tenth of the queries minus that of the first
/// tenth: near zero when the server keeps up, growing with the trace when
/// a backlog builds.
pub fn backlog_growth_s(latencies_s: &[f64]) -> f64 {
    let tenth = (latencies_s.len() / 10).max(1);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    mean(&latencies_s[latencies_s.len() - tenth..]) - mean(&latencies_s[..tenth])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_arrivals_by_hand() {
        // Service costs 0.2 s per batch whatever its size.
        // t=0.00: query 0 has arrived, 1 and 2 have not -> batch {0},
        //         done at 0.20: latency 0.20.
        // t=0.20: queries 1 (0.10) and 2 (0.15) are waiting -> batch
        //         {1, 2}, done at 0.40: latencies 0.30 and 0.25.
        let mut seen = Vec::new();
        let r = replay(&[0.0, 0.10, 0.15], 256, |range| {
            seen.push(range);
            0.2
        });
        assert_eq!(seen, vec![0..1, 1..3]);
        assert_eq!(r.batches, 2);
        let want = [0.20, 0.30, 0.25];
        for (got, want) in r.latencies_s.iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn idles_until_next_arrival_and_respects_window() {
        // Window 1: one query per batch. Query 1 arrives long after
        // query 0 is done, so it waits only for its own service.
        let r = replay(&[0.0, 5.0, 5.0], 1, |range| {
            assert_eq!(range.len(), 1);
            0.5
        });
        assert_eq!(r.batches, 3);
        let want = [0.5, 0.5, 1.0];
        for (got, want) in r.latencies_s.iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn backlog_growth_sign() {
        let flat = vec![1.0; 100];
        assert_eq!(backlog_growth_s(&flat), 0.0);
        let growing: Vec<f64> = (0..100).map(f64::from).collect();
        assert!((backlog_growth_s(&growing) - 90.0).abs() < 1e-12);
    }
}
