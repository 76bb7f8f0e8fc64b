//! Discrete-event, packet-level TCP simulation.
//!
//! The longitudinal CLASP campaign uses a fluid TCP model (`simnet::perf`)
//! because it must evaluate ~1.6 million speed tests. This crate is the
//! packet-level ground truth that validates the fluid model and powers the
//! single-test examples: a small event-driven simulator in the spirit of
//! user-space stacks like smoltcp — explicit state machines, no hidden
//! time, no allocation tricks.
//!
//! * [`engine`] — the simulated clock (nanosecond ticks) and the event
//!   lanes: one FIFO per sorted event stream, popped in global
//!   `(time, seq)` order;
//! * [`link`] — store-and-forward links with rate, propagation delay,
//!   drop-tail queues, and seeded random loss (fault injection);
//! * [`tcp`] — a window-based TCP sender/receiver pair with slow start,
//!   congestion avoidance, fast retransmit/recovery, RTO backoff, and two
//!   congestion-control algorithms (Reno and CUBIC);
//! * [`flow`] — a harness wiring a sender and receiver across a
//!   forward/reverse path, with a tcpdump-style capture of every packet.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod flow;
pub mod link;
pub mod tcp;

pub use engine::SimClock;
pub use flow::{run_flow, Capture, CaptureRecord, FlowConfig, FlowResult, PathSpec};
pub use link::{LinkSpec, LinkState};
pub use tcp::{CongestionControl, TcpSender};
