//! The domain-flavoured scenarios from the paper's introduction, as
//! [`Scenario`] implementations.

use super::{MsgStream, Scenario, SubStream};
use crate::dist::ValueDist;
use crate::gen::{MessageGenerator, SubDimConfig, SubscriptionGenerator};
use bluedove_core::{AttributeSpace, Dimension};

/// The traffic-monitoring scenario from the paper's introduction:
/// longitude, latitude, speed (mph) and time-of-day (seconds). Drivers
/// subscribe to slow traffic in rectangular areas; vehicles publish
/// readings concentrated around a metro hot spot.
#[derive(Debug, Clone, Default)]
pub struct TrafficMonitoring {
    /// Base RNG seed (message stream derives its own from it).
    pub seed: u64,
}

impl TrafficMonitoring {
    /// The scenario at `seed`.
    pub fn new(seed: u64) -> Self {
        TrafficMonitoring { seed }
    }

    /// The four-dimensional road-telemetry space.
    pub fn space(&self) -> AttributeSpace {
        AttributeSpace::new(vec![
            Dimension::new("longitude", -180.0, 180.0),
            Dimension::new("latitude", -90.0, 90.0),
            Dimension::new("speed", 0.0, 120.0),
            Dimension::new("time_of_day", 0.0, 86_400.0),
        ])
        .expect("non-empty dims")
    }

    /// Builds the subscription generator: drivers cluster around the
    /// metro area (-41.7, 72) and care about slow traffic during commute
    /// hours.
    pub fn subscriptions(&self) -> SubscriptionGenerator {
        SubscriptionGenerator::new(
            self.space(),
            vec![
                SubDimConfig {
                    center: ValueDist::CroppedNormal {
                        mean: -41.7,
                        std: 10.0,
                    },
                    width: 2.0,
                },
                SubDimConfig {
                    center: ValueDist::CroppedNormal {
                        mean: 72.0,
                        std: 5.0,
                    },
                    width: 4.0,
                },
                SubDimConfig {
                    center: ValueDist::CroppedNormal {
                        mean: 12.0,
                        std: 15.0,
                    },
                    width: 25.0,
                },
                SubDimConfig {
                    center: ValueDist::Uniform,
                    width: 14_400.0,
                },
            ],
            self.seed,
        )
    }

    /// Builds the message generator (vehicle readings around the metro).
    pub fn messages(&self) -> MessageGenerator {
        MessageGenerator::new(
            self.space(),
            vec![
                ValueDist::CroppedNormal {
                    mean: -41.7,
                    std: 20.0,
                },
                ValueDist::CroppedNormal {
                    mean: 72.0,
                    std: 10.0,
                },
                ValueDist::CroppedNormal {
                    mean: 35.0,
                    std: 25.0,
                },
                ValueDist::Uniform,
            ],
            self.seed ^ 0xDEAD_BEEF,
        )
    }
}

impl Scenario for TrafficMonitoring {
    fn name(&self) -> &'static str {
        "traffic_monitoring"
    }

    fn space(&self) -> AttributeSpace {
        TrafficMonitoring::space(self)
    }

    fn subscription_stream(&self) -> SubStream {
        Box::new(self.subscriptions())
    }

    fn message_stream(&self) -> MsgStream {
        Box::new(self.messages())
    }
}

/// A stock-ticker scenario: symbol id, price, volume and change-percent.
/// Subscriptions follow a Zipf distribution over symbols (the Twitter-like
/// 20-80 skew §III-A-2 cites); quotes likewise concentrate on hot symbols.
#[derive(Debug, Clone, Default)]
pub struct StockTicker {
    /// Base RNG seed (message stream derives its own from it).
    pub seed: u64,
}

impl StockTicker {
    /// The scenario at `seed`.
    pub fn new(seed: u64) -> Self {
        StockTicker { seed }
    }

    /// The four-dimensional quote space.
    pub fn space(&self) -> AttributeSpace {
        AttributeSpace::new(vec![
            Dimension::new("symbol", 0.0, 10_000.0),
            Dimension::new("price", 0.0, 5_000.0),
            Dimension::new("volume", 0.0, 1_000_000.0),
            Dimension::new("change_pct", -50.0, 50.0),
        ])
        .expect("non-empty dims")
    }

    /// Builds the subscription generator (Zipf symbol interest).
    pub fn subscriptions(&self) -> SubscriptionGenerator {
        SubscriptionGenerator::new(
            self.space(),
            vec![
                SubDimConfig {
                    center: ValueDist::Zipf {
                        bins: 100,
                        s: 1.1,
                        perm_seed: self.seed,
                    },
                    width: 100.0,
                },
                SubDimConfig {
                    center: ValueDist::CroppedNormal {
                        mean: 150.0,
                        std: 400.0,
                    },
                    width: 200.0,
                },
                SubDimConfig {
                    center: ValueDist::Uniform,
                    width: 500_000.0,
                },
                SubDimConfig {
                    center: ValueDist::CroppedNormal {
                        mean: 0.0,
                        std: 10.0,
                    },
                    width: 10.0,
                },
            ],
            self.seed,
        )
    }

    /// Builds the quote generator (hot symbols, modest price moves).
    pub fn messages(&self) -> MessageGenerator {
        MessageGenerator::new(
            self.space(),
            vec![
                ValueDist::Zipf {
                    bins: 100,
                    s: 1.1,
                    perm_seed: self.seed,
                },
                ValueDist::CroppedNormal {
                    mean: 150.0,
                    std: 400.0,
                },
                ValueDist::CroppedNormal {
                    mean: 50_000.0,
                    std: 150_000.0,
                },
                ValueDist::CroppedNormal {
                    mean: 0.0,
                    std: 5.0,
                },
            ],
            self.seed ^ 0xFEED_F00D,
        )
    }
}

impl Scenario for StockTicker {
    fn name(&self) -> &'static str {
        "stock_ticker"
    }

    fn space(&self) -> AttributeSpace {
        StockTicker::space(self)
    }

    fn subscription_stream(&self) -> SubStream {
        Box::new(self.subscriptions())
    }

    fn message_stream(&self) -> MsgStream {
        Box::new(self.messages())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_scenario_produces_valid_streams() {
        let s = TrafficMonitoring { seed: 5 };
        let space = s.space();
        for sub in s.subscriptions().take(100) {
            assert_eq!(sub.k(), 4);
            for (i, p) in sub.predicates.iter().enumerate() {
                let d = &space.dims()[i];
                assert!(p.lo >= d.min && p.hi <= d.max);
            }
        }
        for m in s.messages().take(100) {
            assert!(m.validate(&space).is_ok());
        }
    }

    #[test]
    fn stock_scenario_produces_valid_streams() {
        let s = StockTicker { seed: 6 };
        let space = s.space();
        for sub in s.subscriptions().take(100) {
            assert_eq!(sub.k(), 4);
        }
        for m in s.messages().take(100) {
            assert!(m.validate(&space).is_ok());
        }
    }
}
