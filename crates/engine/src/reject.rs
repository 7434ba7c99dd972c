//! Malformed input: the frames an engine drops instead of acting on.
//!
//! A publication or subscription whose arity, values or bounds do not fit
//! the attribute space, or a store mutation naming a dimension outside
//! it, would index out of bounds in candidate lookup, assignment or the
//! matching index. The engines check every such frame at the edge
//! ([`Message::validate`](bluedove_core::Message::validate),
//! [`Subscription::validate`](bluedove_core::Subscription::validate)),
//! drop the malformed ones and report them by kind, so a bad peer costs a
//! counter increment rather than a node.

/// The kind of a frame an engine dropped as malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rejected {
    /// A client publication at a dispatcher.
    Publish,
    /// A client subscription at a dispatcher.
    Subscribe,
    /// A client unsubscription at a dispatcher.
    Unsubscribe,
    /// A subscription copy at a matcher, arriving or replayed.
    StoreSub,
    /// A copy removal at a matcher, arriving or replayed.
    RemoveSub,
    /// A post-hand-over retirement at a matcher, arriving or replayed.
    Retire,
    /// A hand-over request at a matcher.
    HandOver,
    /// A forwarded publication at a matcher.
    MatchMsg,
}

impl Rejected {
    /// Every kind, in label order of the `bluedove_rejected_total` family.
    pub const ALL: [Rejected; 8] = [
        Rejected::Publish,
        Rejected::Subscribe,
        Rejected::Unsubscribe,
        Rejected::StoreSub,
        Rejected::RemoveSub,
        Rejected::Retire,
        Rejected::HandOver,
        Rejected::MatchMsg,
    ];

    /// The `kind` label value.
    pub fn label(self) -> &'static str {
        match self {
            Rejected::Publish => "publish",
            Rejected::Subscribe => "subscribe",
            Rejected::Unsubscribe => "unsubscribe",
            Rejected::StoreSub => "store_sub",
            Rejected::RemoveSub => "remove_sub",
            Rejected::Retire => "retire",
            Rejected::HandOver => "hand_over",
            Rejected::MatchMsg => "match_msg",
        }
    }
}
