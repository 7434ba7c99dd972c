//! The loop both threaded node kinds run, and the shape a node gives it
//! (DESIGN.md § Engine layer, "Host responsibilities").

use crate::proto::{frames, ControlMsg};
use crate::shared::Shared;
use bluedove_core::Time;
use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// What the loop does after one frame.
#[derive(PartialEq)]
pub(crate) enum Step {
    /// Keep going.
    Continue,
    /// Orderly exit (`Shutdown`).
    Exit,
}

/// One node's state machine, as [`run`] drives it. `now` is the host
/// clock ([`Shared::now`]), read once per payload or pass.
pub(crate) trait Node {
    /// Handles one frame.
    fn handle(&mut self, now: Time, msg: ControlMsg) -> Step;

    /// Serves one unit of work queued by earlier frames; `false` when
    /// there is none. Only called on an empty inbox, so everything that
    /// was queued ahead of a job has been handled before it is served.
    fn serve(&mut self, _now: Time) -> bool {
        false
    }

    /// Whether [`Self::upkeep`] has anything to do at `now`: a few
    /// comparisons, so a busy node can ask after every payload.
    fn timer_due(&self, now: Time) -> bool;

    /// The timer work (periodic sends, retransmits, deadline flushes) —
    /// plus, for an `idle` node, flushing everything staged.
    fn upkeep(&mut self, now: Time, idle: bool);

    /// Nothing to handle and nothing to serve: does the upkeep an idle
    /// node owes, then says how long it may block — `None` when it has
    /// nothing left to wait for (a drained `Leave`).
    fn idle(&mut self, now: Time) -> Option<Duration>;

    /// Orderly exit: whatever is staged goes out best-effort and durable
    /// state is synced.
    fn flush_all(&mut self);
}

/// Runs `node` over its inbox until `Shutdown`, a finished leave, a
/// dropped inbox or `crash`. Frames are taken back to back while there
/// are any; only an empty inbox lets the node serve, and only a node
/// with nothing to serve pays for the idle upkeep and a timed wait. A
/// node that never idles still gets its timers after every payload or
/// job. A crash skips the orderly exit: staged frames are lost, exactly
/// as a real crash would lose them.
pub(crate) fn run(mut node: impl Node, shared: &Shared, rx: &Receiver<Bytes>, crash: &AtomicBool) {
    'run: loop {
        if crash.load(Ordering::Relaxed) {
            return;
        }
        let (now, payload) = match rx.try_recv() {
            Ok(p) => (shared.now(), Some(p)),
            Err(TryRecvError::Disconnected) => break,
            Err(TryRecvError::Empty) => {
                let now = shared.now();
                if node.serve(now) {
                    (now, None)
                } else {
                    let Some(wait) = node.idle(now) else { break };
                    match rx.recv_timeout(wait) {
                        Ok(p) => (shared.now(), Some(p)),
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            }
        };
        for msg in payload.into_iter().flat_map(frames) {
            if node.handle(now, msg) == Step::Exit {
                break 'run;
            }
        }
        if node.timer_due(now) {
            node.upkeep(now, false);
        }
    }
    node.flush_all();
}
