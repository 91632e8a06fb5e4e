//! The simulated time axis: instants ([`SimTime`]) and spans between
//! them ([`SimDuration`]), both whole microseconds — the GCD trace
//! convention.
//!
//! This module is the one place that decides what a time past the end
//! of the axis means: a sum past `u64::MAX` µs is [`SimTime::MAX`], the
//! end of time, and an event there never comes. A recovery, a
//! completion, a provisioning order or a retry that would land past the
//! end of time therefore simply never lands — no caller guards its own
//! sum. The types have no wrapping `Add` / `Mul`: an instant moves only
//! through [`SimTime::saturating_add`], a span grows only through
//! [`SimDuration::saturating_mul`], and a float becomes a span only
//! through [`SimDuration::from_micros_f64`] (or [`SimDuration::mul_f64`]),
//! which saturates too.
//!
//! Values from outside the program (spec fields, trace timestamps,
//! report fields) stay `u64` and cross over with `from_micros` /
//! `as_micros` at their boundary; input that must be rejected rather
//! than clamped is checked there, before it becomes a time.

use std::fmt;
use std::ops::Div;

/// An instant on the simulated time axis, in µs since the run began.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct SimTime(u64);

/// A span of simulated time, in µs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of every run.
    pub const ZERO: Self = Self(0);
    /// The end of time: an event here never comes before any horizon a
    /// run stops at.
    pub const MAX: Self = Self(u64::MAX);

    /// The instant `us` µs into the run.
    pub const fn from_micros(us: u64) -> Self {
        Self(us)
    }

    /// µs since the run began.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// `self + span`, or the end of time when the sum passes it.
    pub const fn saturating_add(self, span: SimDuration) -> Self {
        Self(self.0.saturating_add(span.0))
    }

    /// The span from `earlier` to `self`; zero when `earlier` is not
    /// earlier.
    pub const fn since(self, earlier: Self) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// `self` mapped from the axis `[0, from]` onto `[0, onto]`, rounded
    /// down — a trace's weeks compressed onto an experiment's minutes.
    ///
    /// # Panics
    /// Panics when `from` is zero.
    pub fn rescale(self, from: Self, onto: Self) -> Self {
        let t = u128::from(self.0) * u128::from(onto.0) / u128::from(from.0);
        Self(u64::try_from(t).unwrap_or(u64::MAX))
    }

    /// The tick after `self` of a source firing every `period` up to
    /// `horizon` (inclusive); `None` past the horizon — and a tick at
    /// the end of time never comes.
    pub fn next_tick(self, period: SimDuration, horizon: Self) -> Option<Self> {
        Some(self.saturating_add(period)).filter(|&t| t <= horizon && t < Self::MAX)
    }

    /// The first multiple of `step` strictly after `self`, or the end of
    /// time when there is none — an epoch boundary.
    ///
    /// # Panics
    /// Panics when `step` is zero.
    pub const fn next_multiple(self, step: SimDuration) -> Self {
        Self((self.0 / step.0).saturating_add(1).saturating_mul(step.0))
    }
}

impl SimDuration {
    /// No time at all.
    pub const ZERO: Self = Self(0);
    /// The shortest span that moves the clock.
    pub const MICRO: Self = Self(1);

    /// A span of `us` µs.
    pub const fn from_micros(us: u64) -> Self {
        Self(us)
    }

    /// A span of `us` µs, rounded toward zero: a draw past the end of
    /// time is the longest span, a negative or NaN draw is zero.
    pub fn from_micros_f64(us: f64) -> Self {
        // `as` saturates float-to-integer casts (NaN → 0).
        Self(us as u64)
    }

    /// The span in µs.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// True for the span that does not move the clock.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// `self · k`, rounded toward zero as [`SimDuration::from_micros_f64`]
    /// rounds.
    pub fn mul_f64(self, k: f64) -> Self {
        Self::from_micros_f64(self.0 as f64 * k)
    }

    /// `self · k`, or the longest span when the product passes it.
    pub const fn saturating_mul(self, k: u64) -> Self {
        Self(self.0.saturating_mul(k))
    }
}

impl Div<u64> for SimDuration {
    type Output = Self;

    fn div(self, k: u64) -> Self {
        Self(self.0 / k)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    const fn d(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    #[test]
    fn a_sum_past_the_end_of_time_is_the_end_of_time() {
        assert_eq!(t(10).saturating_add(d(5)), t(15));
        assert_eq!(t(u64::MAX - 1).saturating_add(d(2)), SimTime::MAX);
        assert_eq!(SimTime::MAX.saturating_add(d(u64::MAX)), SimTime::MAX);
        assert_eq!(d(u64::MAX / 2).saturating_mul(3), d(u64::MAX));
    }

    #[test]
    fn a_tick_past_the_horizon_or_at_the_end_of_time_never_comes() {
        assert_eq!(t(10).next_tick(d(10), t(20)), Some(t(20)));
        assert_eq!(t(10).next_tick(d(11), t(20)), None);
        assert_eq!(t(u64::MAX - 1).next_tick(d(2), SimTime::MAX), None);
    }

    #[test]
    fn spans_between_instants_never_go_negative() {
        assert_eq!(t(15).since(t(10)), d(5));
        assert_eq!(t(10).since(t(15)), SimDuration::ZERO);
    }

    #[test]
    fn float_spans_saturate() {
        assert_eq!(SimDuration::from_micros_f64(2.9), d(2));
        assert_eq!(SimDuration::from_micros_f64(1e30), d(u64::MAX));
        assert_eq!(SimDuration::from_micros_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_micros_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(d(u64::MAX).mul_f64(2.0), d(u64::MAX));
        assert_eq!(d(10).mul_f64(0.35), d(3));
    }

    #[test]
    fn epoch_boundaries_lie_strictly_after_the_instant() {
        assert_eq!(t(0).next_multiple(d(10)), t(10));
        assert_eq!(t(9).next_multiple(d(10)), t(10));
        assert_eq!(t(10).next_multiple(d(10)), t(20));
        assert_eq!(SimTime::MAX.next_multiple(d(10)), SimTime::MAX);
        assert_eq!(SimTime::MAX.next_multiple(d(1)), SimTime::MAX);
    }

    #[test]
    fn rescaling_maps_one_axis_onto_another() {
        assert_eq!(t(50).rescale(t(100), t(10)), t(5));
        assert_eq!(t(100).rescale(t(100), SimTime::MAX), SimTime::MAX);
        assert_eq!(SimTime::MAX.rescale(t(1), t(2)), SimTime::MAX);
    }

    #[test]
    fn the_types_are_their_micros() {
        assert_eq!(std::mem::size_of::<SimTime>(), 8);
        assert_eq!(t(42).to_string(), "42");
        assert_eq!(d(7) / 2, d(3));
    }
}
