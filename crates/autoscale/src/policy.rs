//! The autoscaling policy: signals in, desired fleet size out.
//!
//! The policy is a pure sizing function — it never touches machines. The
//! [`Autoscaler`](crate::fleet::Autoscaler) samples cell signals on its
//! evaluation cadence, asks the policy for a desired fleet size, clamps
//! the answer to the configured `[min, max]` band, and then drives the
//! machine lifecycle (warm-pool activation, provisioning, drain) to
//! close the gap. Keeping the policy pure makes it trivially
//! deterministic and benchmarkable in isolation (the `autoscale` bench
//! family times exactly this decision path).

/// One evaluation tick's view of a scheduling cell, sampled from the
/// engine's shared state.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Signals {
    /// Online machines right now.
    pub fleet: usize,
    /// Queue pressure: pending main + high-priority tasks plus gang
    /// members awaiting an all-or-nothing retry.
    pub pending: usize,
    /// Fleet CPU utilisation (0..1).
    pub utilisation: f64,
    /// `NoCapacity` placement outcomes since the previous evaluation —
    /// every count is one cycle slot burned on a task the fleet could
    /// suit but not hold (the `EngineState::can_admit`-failure signal).
    pub no_capacity_delta: u64,
    /// Mean scheduling latency over the recently placed tasks (µs).
    pub recent_latency_mean: Option<f64>,
}

/// Threshold step-scaling: queue pressure above `up_pending` — or
/// recent admission latency above `up_latency`, when set — adds `step`
/// machines; an idle, under-utilised fleet (`pending == 0`,
/// utilisation below `down_util`) sheds `step`.
///
/// The classic alarm-driven scaler: simple, reactive, and prone to a
/// provisioning-delay lag under bursts.
#[derive(Clone, Copy, Debug)]
pub struct ThresholdStep {
    /// Queue-pressure level (pending + no-capacity events per tick)
    /// that triggers a scale-up.
    pub up_pending: usize,
    /// Recent mean admission latency (µs) that triggers a scale-up
    /// regardless of queue depth; `None` disables the latency alarm.
    pub up_latency: Option<f64>,
    /// Utilisation below which an idle fleet sheds machines.
    pub down_util: f64,
    /// Machines added or removed per decision.
    pub step: usize,
}

impl Default for ThresholdStep {
    fn default() -> Self {
        Self {
            up_pending: 8,
            up_latency: None,
            down_util: 0.3,
            step: 2,
        }
    }
}

impl ThresholdStep {
    /// Registry / report name.
    pub const NAME: &'static str = "threshold";

    /// Desired active fleet size for the latest signals. The caller
    /// clamps the answer to its `[min, max]` band — the policy sizes
    /// for the load, the planner enforces the budget.
    pub fn desired_fleet(&self, s: &Signals) -> usize {
        let pressure = s.pending + s.no_capacity_delta as usize;
        let latency_alarm = self
            .up_latency
            .zip(s.recent_latency_mean)
            .is_some_and(|(limit, seen)| seen > limit);
        if pressure > self.up_pending || latency_alarm {
            s.fleet + self.step.max(1)
        } else if s.pending == 0 && s.utilisation < self.down_util {
            s.fleet.saturating_sub(self.step.max(1))
        } else {
            s.fleet
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(fleet: usize, pending: usize, util: f64) -> Signals {
        Signals {
            fleet,
            pending,
            utilisation: util,
            no_capacity_delta: 0,
            recent_latency_mean: None,
        }
    }

    #[test]
    fn threshold_steps_up_and_down() {
        let mut p = ThresholdStep {
            up_pending: 4,
            up_latency: None,
            down_util: 0.3,
            step: 3,
        };
        assert_eq!(
            p.desired_fleet(&sig(10, 9, 0.8)),
            13,
            "pressure adds a step"
        );
        assert_eq!(p.desired_fleet(&sig(10, 2, 0.5)), 10, "in band holds");
        assert_eq!(p.desired_fleet(&sig(10, 0, 0.1)), 7, "idle sheds a step");
        // No-capacity events count as pressure even with a short queue.
        let mut s = sig(10, 2, 0.8);
        s.no_capacity_delta = 6;
        assert_eq!(p.desired_fleet(&s), 13);
        // The latency alarm scales up even when the queue looks short.
        p.up_latency = Some(400_000.0);
        let mut s = sig(10, 1, 0.5);
        s.recent_latency_mean = Some(900_000.0);
        assert_eq!(p.desired_fleet(&s), 13, "slow admissions add a step");
        s.recent_latency_mean = Some(100_000.0);
        assert_eq!(p.desired_fleet(&s), 10, "fast admissions hold");
    }
}
