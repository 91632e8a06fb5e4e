//! Workload statistics — the Table IX reproduction.
//!
//! Table IX reports, per GCD archive, the distribution of tasks with
//! constraint operators by volume, requested CPU and requested memory:
//! min / max / average across the trace. We compute those ratios over
//! daily windows (the min/max spread comes from the workload's seasonal
//! swing) and aggregate.

use serde::{Deserialize, Serialize};

use ctlm_trace::event::MICROS_PER_DAY;
use ctlm_trace::Micros;

/// Aggregated min/max/avg triple for one metric.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MinMaxAvg {
    /// Smallest windowed ratio.
    pub min: f64,
    /// Largest windowed ratio.
    pub max: f64,
    /// Mean across windows (weighted by window totals).
    pub avg: f64,
}

/// The Table IX row for one cell.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CoDistribution {
    /// Tasks with CO by volume (count share).
    pub by_volume: MinMaxAvg,
    /// Tasks with CO by requested CPU share.
    pub by_cpu: MinMaxAvg,
    /// Tasks with CO by requested memory share.
    pub by_memory: MinMaxAvg,
}

#[derive(Clone, Copy, Debug, Default)]
struct Window {
    tasks: u64,
    co_tasks: u64,
    cpu: f64,
    co_cpu: f64,
    mem: f64,
    co_mem: f64,
}

/// Streaming collector: feed every task submission, then aggregate.
#[derive(Clone, Debug)]
pub struct CoStatsCollector {
    window_len: Micros,
    windows: Vec<Window>,
}

impl CoStatsCollector {
    /// Collector with daily windows (Table IX's granularity).
    pub fn daily() -> Self {
        Self::with_window(MICROS_PER_DAY)
    }

    /// Collector with a custom window length.
    ///
    /// # Panics
    /// Panics if `window_len == 0`.
    fn with_window(window_len: Micros) -> Self {
        assert!(window_len > 0, "window length must be positive");
        Self {
            window_len,
            windows: Vec::new(),
        }
    }

    /// Records one task submission.
    pub fn record(&mut self, time: Micros, cpu: f64, memory: f64, has_co: bool) {
        let w = (time / self.window_len) as usize;
        if w >= self.windows.len() {
            self.windows.resize(w + 1, Window::default());
        }
        let win = &mut self.windows[w];
        win.tasks += 1;
        win.cpu += cpu;
        win.mem += memory;
        if has_co {
            win.co_tasks += 1;
            win.co_cpu += cpu;
            win.co_mem += memory;
        }
    }

    /// Number of non-empty windows recorded.
    #[cfg(test)]
    pub fn window_count(&self) -> usize {
        self.windows.iter().filter(|w| w.tasks > 0).count()
    }

    /// Aggregates into the Table IX row.
    ///
    /// # Panics
    /// Panics if no task was recorded.
    pub fn distribution(&self) -> CoDistribution {
        let live: Vec<&Window> = self.windows.iter().filter(|w| w.tasks > 0).collect();
        assert!(!live.is_empty(), "no tasks recorded");
        let agg = |num: fn(&Window) -> f64, den: fn(&Window) -> f64| -> MinMaxAvg {
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            let mut num_total = 0.0;
            let mut den_total = 0.0;
            for w in &live {
                let d = den(w);
                if d <= 0.0 {
                    continue;
                }
                let r = num(w) / d;
                min = min.min(r);
                max = max.max(r);
                num_total += num(w);
                den_total += d;
            }
            MinMaxAvg {
                min,
                max,
                avg: num_total / den_total,
            }
        };
        CoDistribution {
            by_volume: agg(|w| w.co_tasks as f64, |w| w.tasks as f64),
            by_cpu: agg(|w| w.co_cpu, |w| w.cpu),
            by_memory: agg(|w| w.co_mem, |w| w.mem),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_window_ratios() {
        let mut c = CoStatsCollector::with_window(100);
        c.record(0, 1.0, 2.0, true);
        c.record(10, 1.0, 2.0, false);
        let d = c.distribution();
        assert_eq!(d.by_volume.avg, 0.5);
        assert_eq!(d.by_cpu.avg, 0.5);
        assert_eq!(d.by_memory.avg, 0.5);
        assert_eq!(d.by_volume.min, d.by_volume.max);
    }

    #[test]
    fn min_max_span_windows() {
        let mut c = CoStatsCollector::with_window(100);
        // Window 0: all constrained. Window 1: none.
        c.record(0, 1.0, 1.0, true);
        c.record(150, 1.0, 1.0, false);
        let d = c.distribution();
        assert_eq!(d.by_volume.min, 0.0);
        assert_eq!(d.by_volume.max, 1.0);
        assert_eq!(d.by_volume.avg, 0.5);
    }

    #[test]
    fn cpu_weighting_differs_from_volume() {
        let mut c = CoStatsCollector::with_window(100);
        // One heavy constrained task, nine light unconstrained ones.
        c.record(0, 0.9, 0.9, true);
        for _ in 0..9 {
            c.record(1, 0.01, 0.01, false);
        }
        let d = c.distribution();
        assert!((d.by_volume.avg - 0.1).abs() < 1e-9);
        assert!(d.by_cpu.avg > 0.9, "heavy task dominates CPU share");
    }

    #[test]
    fn empty_windows_are_skipped() {
        let mut c = CoStatsCollector::with_window(10);
        c.record(0, 1.0, 1.0, true);
        c.record(1000, 1.0, 1.0, true); // 99 empty windows between
        assert_eq!(c.window_count(), 2);
        let d = c.distribution();
        assert_eq!(d.by_volume.avg, 1.0);
    }

    #[test]
    #[should_panic(expected = "no tasks recorded")]
    fn empty_collector_panics() {
        let _ = CoStatsCollector::daily().distribution();
    }
}
