//! Machine (resource) configuration: how many processors of each type.

/// Processor counts per resource type — the `P_α` of the paper.
///
/// A configuration with `K` entries describes a functionally heterogeneous
/// system with `K` resource types. Every entry must be ≥ 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineConfig {
    procs: Vec<usize>,
}

impl MachineConfig {
    /// Builds a configuration from explicit per-type counts.
    ///
    /// # Panics
    /// If `procs` is empty, contains a zero, or contains a count above
    /// `u32::MAX` (the engine numbers a type's processors with `u32` ids).
    pub fn new(procs: Vec<usize>) -> Self {
        assert!(!procs.is_empty(), "need at least one resource type");
        assert!(
            procs.iter().all(|&p| p > 0),
            "every resource type needs at least one processor"
        );
        assert!(
            procs.iter().all(|&p| u32::try_from(p).is_ok()),
            "a resource type has more than u32::MAX processors"
        );
        MachineConfig { procs }
    }

    /// `k` types with `p` processors each.
    pub fn uniform(k: usize, p: usize) -> Self {
        MachineConfig::new(vec![p; k])
    }

    /// Number of resource types `K`.
    #[inline]
    pub fn num_types(&self) -> usize {
        self.procs.len()
    }

    /// `P_α` for type `alpha`.
    #[inline]
    pub fn procs(&self, alpha: usize) -> usize {
        self.procs[alpha]
    }

    /// The per-type counts as a slice `[P_0, …, P_{K-1}]`.
    #[inline]
    pub fn procs_per_type(&self) -> &[usize] {
        &self.procs
    }

    /// Total processor count across all types.
    pub fn total_procs(&self) -> usize {
        self.procs.iter().sum()
    }

    /// Returns a copy with type `alpha`'s processor count divided by
    /// `divisor` (rounded up, so it never reaches zero) — the skewed-load
    /// transformation of the paper's §V-E, which shrinks type 1 to 1/5 of
    /// its machines.
    pub fn with_type_shrunk(&self, alpha: usize, divisor: usize) -> Self {
        assert!(divisor >= 1, "divisor must be positive");
        let mut procs = self.procs.clone();
        procs[alpha] = procs[alpha].div_ceil(divisor);
        MachineConfig::new(procs)
    }
}

impl std::fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P[")?;
        for (i, p) in self.procs.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_and_accessors() {
        let c = MachineConfig::uniform(4, 3);
        assert_eq!(c.num_types(), 4);
        assert_eq!(c.procs(2), 3);
        assert_eq!(c.total_procs(), 12);
        assert_eq!(c.procs_per_type(), &[3, 3, 3, 3]);
    }

    #[test]
    fn shrink_rounds_up_and_stays_positive() {
        let c = MachineConfig::new(vec![10, 20]);
        let s = c.with_type_shrunk(0, 5);
        assert_eq!(s.procs_per_type(), &[2, 20]);
        // 3 / 5 rounds up to 1, never 0
        let c = MachineConfig::new(vec![3, 7]);
        assert_eq!(c.with_type_shrunk(0, 5).procs(0), 1);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn rejects_zero_processor_type() {
        MachineConfig::new(vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "more than u32::MAX processors")]
    fn rejects_pool_wider_than_processor_ids() {
        // The largest pool with `u32` processor ids is still accepted.
        MachineConfig::new(vec![u32::MAX as usize, 1]);
        MachineConfig::new(vec![u32::MAX as usize + 1, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one resource type")]
    fn rejects_empty() {
        MachineConfig::new(vec![]);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(MachineConfig::new(vec![1, 2, 3]).to_string(), "P[1,2,3]");
    }
}
