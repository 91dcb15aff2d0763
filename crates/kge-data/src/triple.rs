//! The triple type.

/// A knowledge-graph fact `(head, relation, tail)`, stored as dense ids.
///
/// 32-bit ids keep a triple at 12 bytes — FB250K-scale datasets (16 M
/// facts) fit comfortably in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    pub head: u32,
    pub rel: u32,
    pub tail: u32,
}

impl Triple {
    pub fn new(head: u32, rel: u32, tail: u32) -> Self {
        Triple { head, rel, tail }
    }

    /// The triple with its head replaced (negative sampling).
    #[inline]
    pub fn with_head(self, head: u32) -> Self {
        Triple { head, ..self }
    }

    /// The triple with its tail replaced (negative sampling).
    #[inline]
    pub fn with_tail(self, tail: u32) -> Self {
        Triple { tail, ..self }
    }
}

impl From<(u32, u32, u32)> for Triple {
    fn from((head, rel, tail): (u32, u32, u32)) -> Self {
        Triple { head, rel, tail }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_replacement() {
        let t = Triple::new(1, 2, 3);
        assert_eq!(t.with_head(9), Triple::new(9, 2, 3));
        assert_eq!(t.with_tail(9), Triple::new(1, 2, 9));
        assert_eq!(Triple::from((4, 5, 6)), Triple::new(4, 5, 6));
    }

    #[test]
    fn triple_is_12_bytes() {
        assert_eq!(std::mem::size_of::<Triple>(), 12);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = [Triple::new(1, 2, 3), Triple::new(0, 9, 9), Triple::new(1, 1, 9)];
        v.sort();
        assert_eq!(v[0], Triple::new(0, 9, 9));
        assert_eq!(v[1], Triple::new(1, 1, 9));
    }
}
