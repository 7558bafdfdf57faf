//! Name-based construction of the paper's algorithms — the experiment
//! harness and benches select policies through this.

use fhs_sim::Policy;

use crate::mqb::{InfoModel, Mqb};
use crate::{DType, Edd, KGreedy, LSpan, MaxDP, ShiftBT};

/// The algorithms evaluated in the paper's §V.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Online greedy (§III).
    KGreedy,
    /// Longest span first.
    LSpan,
    /// Different type first.
    DType,
    /// Maximum descendants first.
    MaxDP,
    /// Shifting bottleneck.
    ShiftBT,
    /// Multi-Queue Balancing with full, precise information.
    Mqb,
    /// Multi-Queue Balancing with an explicit information model (§V-G).
    MqbWith(InfoModel),
    /// Bounded-candidate MQB: each contested pick evaluates at most
    /// [`DEFAULT_APPROX_CAP`](crate::mqb::DEFAULT_APPROX_CAP) candidates
    /// (top-c by total descendant value).
    /// Schedule quality vs exact MQB is pinned by tests.
    MqbApprox,
    /// Earliest due date (extension baseline; not in the paper's six).
    Edd,
}

/// The six algorithms of Figures 4–7, in the paper's plotting order.
pub const ALL_ALGORITHMS: [Algorithm; 6] = [
    Algorithm::KGreedy,
    Algorithm::LSpan,
    Algorithm::DType,
    Algorithm::MaxDP,
    Algorithm::ShiftBT,
    Algorithm::Mqb,
];

impl Algorithm {
    /// The display name used in tables (matches the paper's legends).
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::KGreedy => "KGreedy",
            Algorithm::LSpan => "LSpan",
            Algorithm::DType => "DType",
            Algorithm::MaxDP => "MaxDP",
            Algorithm::ShiftBT => "ShiftBT",
            Algorithm::Mqb => "MQB",
            Algorithm::MqbWith(info) => info.label(),
            Algorithm::MqbApprox => "MQB-Approx",
            Algorithm::Edd => "EDD",
        }
    }

    /// Whether the algorithm uses offline (full K-DAG) information.
    pub fn is_offline(&self) -> bool {
        !matches!(self, Algorithm::KGreedy)
    }

    /// Parses a label produced by [`Algorithm::label`]; used by the
    /// experiment binaries' `--algo` flags.
    pub fn parse(name: &str) -> Option<Algorithm> {
        match name {
            "KGreedy" => Some(Algorithm::KGreedy),
            "LSpan" => Some(Algorithm::LSpan),
            "DType" => Some(Algorithm::DType),
            "MaxDP" => Some(Algorithm::MaxDP),
            "ShiftBT" => Some(Algorithm::ShiftBT),
            "MQB" => Some(Algorithm::Mqb),
            "MQB-Approx" => Some(Algorithm::MqbApprox),
            "EDD" => Some(Algorithm::Edd),
            _ => InfoModel::ALL_VARIANTS
                .into_iter()
                .find(|i| i.label() == name)
                .map(Algorithm::MqbWith),
        }
    }
}

/// Instantiates a fresh policy value for `algorithm`.
pub fn make_policy(algorithm: Algorithm) -> Box<dyn Policy> {
    match algorithm {
        Algorithm::KGreedy => Box::new(KGreedy::default()),
        Algorithm::LSpan => Box::new(LSpan::default()),
        Algorithm::DType => Box::new(DType::default()),
        Algorithm::MaxDP => Box::new(MaxDP::default()),
        Algorithm::ShiftBT => Box::new(ShiftBT::default()),
        Algorithm::Mqb => Box::new(Mqb::default()),
        Algorithm::MqbWith(info) => Box::new(Mqb::new(info)),
        Algorithm::MqbApprox => Box::new(Mqb::approx(InfoModel::default())),
        Algorithm::Edd => Box::new(Edd::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhs_sim::{metrics, MachineConfig, Mode};

    #[test]
    fn labels_round_trip_through_parse() {
        for algo in ALL_ALGORITHMS {
            assert_eq!(Algorithm::parse(algo.label()), Some(algo));
        }
        for info in InfoModel::ALL_VARIANTS {
            let algo = Algorithm::MqbWith(info);
            assert_eq!(Algorithm::parse(algo.label()), Some(algo));
        }
        assert_eq!(
            Algorithm::parse(Algorithm::MqbApprox.label()),
            Some(Algorithm::MqbApprox)
        );
        assert_eq!(Algorithm::parse("NoSuch"), None);
    }

    #[test]
    fn only_kgreedy_is_online() {
        assert!(!Algorithm::KGreedy.is_offline());
        for algo in &ALL_ALGORITHMS[1..] {
            assert!(algo.is_offline(), "{} should be offline", algo.label());
        }
    }

    #[test]
    fn every_algorithm_completes_figure1() {
        let job = kdag::examples::figure1();
        let cfg = MachineConfig::uniform(3, 2);
        for algo in ALL_ALGORITHMS {
            let mut p = make_policy(algo);
            for mode in [Mode::NonPreemptive, Mode::Preemptive] {
                let r = metrics::evaluate(&job, &cfg, p.as_mut(), mode, 1);
                assert!(
                    (1.0..=4.0).contains(&r.ratio),
                    "{} ratio {} out of the (K+1)-competitive envelope",
                    algo.label(),
                    r.ratio
                );
            }
        }
    }

    #[test]
    fn mqb_approx_completes_figure1() {
        let job = kdag::examples::figure1();
        let cfg = MachineConfig::uniform(3, 2);
        let mut p = make_policy(Algorithm::MqbApprox);
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            let r = metrics::evaluate(&job, &cfg, p.as_mut(), mode, 1);
            assert!(
                (1.0..=4.0).contains(&r.ratio),
                "MQB-Approx ratio {} out of the (K+1)-competitive envelope",
                r.ratio
            );
        }
    }
}
