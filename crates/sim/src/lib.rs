//! # ctlm-sim — the deterministic discrete-event simulation kernel
//!
//! A small kernel under the scheduler simulation (`ctlm-sched`, its
//! only direct client): a monotonic microsecond clock, a typed event
//! queue with stable tie-breaking, a [`Component`] trait that event
//! handlers register on, and a *world* — the state the components
//! share, owned by the simulation and lent to each handler in turn.
//! Everything that used to be a bespoke simulation loop becomes a
//! component exchanging events on one timeline, so scenarios compose —
//! scheduling, machine churn, an online trace feed and live model
//! retraining can all run in a single simulation. (Batch trace replay is
//! a plain fold in `ctlm-agocs` and does not link this crate.)
//!
//! Determinism is the design constraint: two runs over the same inputs
//! deliver the same events in the same order. The queue orders by
//! `(time, seq)` where `seq` is a global insertion counter, so
//! same-timestamp events fire in the order they were scheduled — there is
//! no iteration over hash maps and no wall-clock anywhere in the kernel.
//!
//! The crate splits into two layers:
//!
//! * **Shard layer** ([`kernel`], [`event`]) — a sequential [`Sim`]: one
//!   clock, one `(time, priority, seq)`-ordered queue (heap and
//!   timer-wheel lanes), the registered components and their world.
//!   One `Sim` is one *cell kernel*: it owns everything its components
//!   touch, so it is `Send` whenever its world and payload are — the
//!   compiler, not a convention, keeps shards apart.
//! * **Coordinator layer** ([`parallel`]) — [`ParallelSim`] hosts many
//!   shards and advances them in epoch-barrier rounds on the worker
//!   pool. Cross-shard traffic leaves a shard only through
//!   [`Ctx::emit_remote`] outboxes and re-enters other shards only at
//!   barriers, merged in a deterministic `(time, priority, shard, seq)`
//!   order — so results are bit-identical for any thread count.
//!
//! A single-timeline user (the `ctlm-sched` harness) uses the shard
//! layer directly and never pays for coordination.
//!
//! Times are [`SimTime`] instants and [`SimDuration`] spans; [`time`]
//! alone decides that a sum past the end of the axis means "never".
//!
//! ```
//! use ctlm_sim::{Component, Ctx, Event, Sim, SimDuration, SimTime};
//!
//! // Two players rally until the budget they share, the world, is spent.
//! struct Ping { peer: ctlm_sim::CompId }
//! impl Component<u32, &'static str> for Ping {
//!     fn on_event(
//!         &mut self,
//!         ev: Event<&'static str>,
//!         left: &mut u32,
//!         ctx: &mut Ctx<'_, &'static str>,
//!     ) {
//!         if *left > 0 {
//!             *left -= 1;
//!             let reply = if ev.payload == "ping" { "pong" } else { "ping" };
//!             ctx.emit(SimDuration::from_micros(10), self.peer, reply);
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new(4);
//! let a = sim.add_component(Ping { peer: 1 });
//! let b = sim.add_component(Ping { peer: 0 });
//! sim.schedule(SimTime::ZERO, a, b, "ping");
//! sim.run();
//! // b replies at 10, a at 20, b at 30, a at 40; the final delivery
//! // finds the budget spent, so the queue drains.
//! assert_eq!(sim.now(), SimTime::from_micros(40));
//! assert_eq!(sim.events_delivered(), 5);
//! assert_eq!(sim.into_world(), 0);
//! ```

pub mod event;
pub mod kernel;
pub mod parallel;
pub mod time;

pub use event::{Event, EventQueue, LaneStats};
pub use kernel::{CompId, Component, Ctx, Sim};
pub use parallel::{CellKernel, EpochAutotune, ParallelPerf, ParallelSim, RemoteEvent};
pub use time::{SimDuration, SimTime};
