//! The benchmark's own arithmetic: percentiles, open-loop timing, span
//! self time and the queue residual. Kept free of I/O so every rule the
//! reported numbers rest on is unit-tested here.

/// Samples that must lie strictly beyond a percentile before it is
/// reported. With fewer, the "percentile" is one or two observations and
/// reads as noise.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in percent) of `sorted` (ascending).
///
/// Returns `None` unless at least [`MIN_BEYOND`] samples lie beyond the
/// chosen rank, so a p99 needs at least 1000 samples and a median 20.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    // 1-based nearest rank: the smallest k with k/n >= p/100.
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Percentile `p` of each window's samples, then the median across
/// windows. A burst of interference on the machine moves one window's
/// figure, not the reported one. `None` if any window is too small for
/// [`percentile`].
pub fn windowed_percentile(windows: &[Vec<f64>], p: f64) -> Option<f64> {
    let per: Option<Vec<f64>> = windows.iter().map(|w| percentile(&sorted(w), p)).collect();
    median(&per?)
}

/// Splits `(window, value)` pairs into `count` sample lists.
pub fn split_windows(
    samples: impl IntoIterator<Item = (usize, f64)>,
    count: usize,
) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); count];
    for (w, v) in samples {
        out[w.min(count - 1)].push(v);
    }
    out
}

/// The latency an attempt contributes to the percentiles. Every attempt
/// counts, so a run with failures keeps its sample size; a failed one is
/// charged at least the latency limit, since it missed any limit.
pub fn charged_ms(observed_ms: f64, ok: bool, limit_ms: f64) -> f64 {
    if ok {
        observed_ms
    } else {
        observed_ms.max(limit_ms)
    }
}

/// Sorts a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Plain median (mean of the middle pair for even counts); `None` when
/// empty. Used for per-call layer times and repeated set-up, where the
/// sample is small and no tail is reported.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// Due time of request `index` on a fixed-rate schedule, in ns after the
/// schedule's start.
pub fn due_ns(index: usize, rate_per_s: f64) -> u64 {
    (index as f64 * 1e9 / rate_per_s).round() as u64
}

/// One open-loop request's timeline, in ns after the schedule's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopTiming {
    /// When the schedule said the request should go out.
    pub due_ns: u64,
    /// When the generator actually started sending it.
    pub sent_ns: u64,
    /// When the full response had arrived.
    pub done_ns: u64,
}

impl OpenLoopTiming {
    /// Latency as the user sees it: from the due time, so a request the
    /// generator sent late still pays for the stall that made it late.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator itself ran on this request.
    pub fn lag_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// Server-side time nobody's code accounts for: the HTTP latency minus
/// the in-process replay of the same request's layer calls (parse, admit,
/// claim, execute, render). Signed: a replay slower than the live request
/// (noise, a colder cache) reads negative rather than being clipped.
pub fn queue_residual_ns(http_latency_ns: u64, replay_ns: u64) -> i64 {
    http_latency_ns as i64 - replay_ns as i64
}

/// A recorded interval with its parent, enough for self-time arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Span id (index into the span list).
    pub id: u32,
    /// Parent span id, if any.
    pub parent: Option<u32>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children counted once,
/// parts of a child outside the parent ignored). Indexed like `spans`,
/// whose `id`s must equal their positions.
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(list) = children.get_mut(p as usize) {
                list.push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            dur - covered.min(dur)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // n = 1000: p99 is rank 990, 10 samples beyond -> reported.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        // n = 999: rank 990, only 9 beyond -> withheld.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // The median needs 20 samples: rank 10 of 20 leaves 10 beyond.
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
        // p90 of 100 is rank 90 with exactly 10 beyond.
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(2000);
        assert_eq!(percentile(&v, 50.0), Some(1000.0));
        assert_eq!(percentile(&v, 99.0), Some(1980.0));
        assert_eq!(percentile(&v, 99.5), Some(1990.0));
        assert_eq!(percentile(&v, 99.9), None, "rank 1998 leaves 2 beyond");
    }

    #[test]
    fn windowed_percentile_is_the_median_of_window_percentiles() {
        // Three windows of 1000; one is shifted by a burst.
        let mut windows: Vec<Vec<f64>> = (0..3).map(|_| ramp(1000)).collect();
        windows[1] = ramp(1000).iter().map(|v| v + 500.0).collect();
        windows[2] = ramp(1000).iter().map(|v| v + 2.0).collect();
        // Window p99s: 990, 1490, 992 -> median 992.
        assert_eq!(windowed_percentile(&windows, 99.0), Some(992.0));
        // One window too small for a p99 withholds the figure.
        windows[0].truncate(999);
        assert_eq!(windowed_percentile(&windows, 99.0), None);
        let split = split_windows([(0, 1.0), (2, 2.0), (9, 3.0)], 3);
        assert_eq!(split, vec![vec![1.0], vec![], vec![2.0, 3.0]]);
    }

    #[test]
    fn failures_are_charged_at_least_the_limit() {
        assert_eq!(charged_ms(0.3, true, 2.0), 0.3);
        assert_eq!(charged_ms(0.3, false, 2.0), 2.0);
        assert_eq!(charged_ms(60_000.0, false, 2.0), 60_000.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn due_times_follow_the_fixed_rate() {
        assert_eq!(due_ns(0, 200.0), 0);
        assert_eq!(due_ns(1, 200.0), 5_000_000);
        assert_eq!(due_ns(200, 200.0), 1_000_000_000);
        assert_eq!(due_ns(3, 300.0), 10_000_000);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // Sent 2 ms late because the generator stalled; served in 0.5 ms.
        let t = OpenLoopTiming {
            due_ns: 10_000_000,
            sent_ns: 12_000_000,
            done_ns: 12_500_000,
        };
        assert_eq!(t.latency_ns(), 2_500_000, "the stall is charged");
        assert_eq!(t.lag_ns(), 2_000_000);
        // An early send (never happens, but must not underflow).
        let early = OpenLoopTiming {
            due_ns: 5,
            sent_ns: 3,
            done_ns: 4,
        };
        assert_eq!(early.lag_ns(), 0);
        assert_eq!(early.latency_ns(), 0);
    }

    #[test]
    fn queue_residual_subtracts_the_replay() {
        assert_eq!(queue_residual_ns(5_300_000, 300_000), 5_000_000);
        assert_eq!(queue_residual_ns(250_000, 300_000), -50_000);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            // Root 0..100 with children 10..30 and 20..50 (overlapping)
            // and a grandchild inside the first child.
            Interval {
                id: 0,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Interval {
                id: 1,
                parent: Some(0),
                start_ns: 10,
                end_ns: 30,
            },
            Interval {
                id: 2,
                parent: Some(0),
                start_ns: 20,
                end_ns: 50,
            },
            Interval {
                id: 3,
                parent: Some(1),
                start_ns: 12,
                end_ns: 18,
            },
            // A child that spills past its parent only counts inside it.
            Interval {
                id: 4,
                parent: None,
                start_ns: 200,
                end_ns: 210,
            },
            Interval {
                id: 5,
                parent: Some(4),
                start_ns: 205,
                end_ns: 300,
            },
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![60, 14, 30, 6, 5, 95]);
    }
}
