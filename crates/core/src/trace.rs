//! Time-series measurement collection.
//!
//! The shells accumulate counters (paper Section 5.4); the system's
//! sampling process reads them at a regular interval and appends to named
//! series. `eclipse-viz` renders these as the paper's Figure 9/10 style
//! charts; benches export them as CSV.

use std::collections::HashMap;

use eclipse_sim::snapshot::FnvState;
use eclipse_sim::Cycle;

/// One named time series of (cycle, value) samples.
#[derive(Debug, Clone, Default)]
pub struct TraceSeries {
    /// Series name, e.g. `"buffer/coef/space"` or `"shell/dct/busy"`.
    pub name: String,
    /// Samples in increasing cycle order.
    pub points: Vec<(Cycle, f64)>,
}

impl TraceSeries {
    /// Latest sampled value (0 if empty).
    pub fn last(&self) -> f64 {
        self.points.last().map_or(0.0, |&(_, v)| v)
    }

    /// Maximum sampled value (0 if empty).
    pub fn max(&self) -> f64 {
        self.points.iter().fold(0.0f64, |m, &(_, v)| m.max(v))
    }

    /// Mean of the sampled values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
        }
    }
}

/// A bag of named series.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// All series, in creation order.
    pub series: Vec<TraceSeries>,
    /// Name → index into `series`. Series are created once and sampled
    /// many times, so `record` must not re-scan the whole vec per sample.
    /// Keyed with the deterministic FNV hasher: the lookup happens once per
    /// series per sample tick, where SipHash showed up in profiles.
    by_name: HashMap<String, usize, FnvState>,
}

impl TraceLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild the name index after the series were replaced.
    fn reindex(&mut self) -> Result<(), eclipse_sim::SnapError> {
        self.by_name = (self.series.iter().enumerate())
            .map(|(i, s)| (s.name.clone(), i))
            .collect();
        Ok(())
    }

    /// Append a sample to the named series, creating it if needed.
    pub fn record(&mut self, name: &str, time: Cycle, value: f64) {
        let idx = self.index_of(name);
        self.record_at(idx, time, value);
    }

    /// Append a sample to the series at `index`, as returned by
    /// [`TraceLog::index_of`]: a sampler resolves each name once and
    /// records by index from then on.
    #[inline]
    pub fn record_at(&mut self, index: usize, time: Cycle, value: f64) {
        self.series[index].points.push((time, value));
    }

    /// Index of the named series, creating an empty one if needed.
    pub fn index_of(&mut self, name: &str) -> usize {
        if let Some(&i) = self.by_name.get(name) {
            return i;
        }
        // The map only sees names that went through `record`, so a miss can
        // also mean the series was pushed onto the pub `series` field
        // directly; fall back to a scan before creating.
        if let Some(i) = self.series.iter().position(|s| s.name == name) {
            self.by_name.insert(name.to_string(), i);
            return i;
        }
        let i = self.series.len();
        self.series.push(TraceSeries {
            name: name.to_string(),
            points: Vec::new(),
        });
        self.by_name.insert(name.to_string(), i);
        i
    }

    /// Find a series by name.
    pub fn get(&self, name: &str) -> Option<&TraceSeries> {
        if let Some(&i) = self.by_name.get(name) {
            return self.series.get(i);
        }
        self.series.iter().find(|s| s.name == name)
    }

    /// Export the log as CSV (`series,cycle,value` rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,cycle,value\n");
        for s in &self.series {
            for &(t, v) in &s.points {
                out.push_str(&format!("{},{},{}\n", s.name, t, v));
            }
        }
        out
    }
}

eclipse_sim::snap_fields!(TraceSeries { name, points });
eclipse_sim::snap_fields!(TraceLog { series } then TraceLog::reindex);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_creates_and_appends() {
        let mut log = TraceLog::new();
        log.record("a", 0, 1.0);
        log.record("a", 10, 2.0);
        log.record("b", 5, 7.0);
        assert_eq!(log.series.len(), 2);
        let a = log.get("a").unwrap();
        assert_eq!(a.points, vec![(0, 1.0), (10, 2.0)]);
        assert_eq!(a.last(), 2.0);
        assert_eq!(a.max(), 2.0);
        assert_eq!(a.mean(), 1.5);
    }

    #[test]
    fn csv_export() {
        let mut log = TraceLog::new();
        log.record("x", 1, 0.5);
        let csv = log.to_csv();
        assert!(csv.starts_with("series,cycle,value\n"));
        assert!(csv.contains("x,1,0.5\n"));
    }

    #[test]
    fn record_after_direct_series_push_does_not_duplicate() {
        let mut log = TraceLog::new();
        log.series.push(TraceSeries {
            name: "ext".into(),
            points: vec![(0, 1.0)],
        });
        log.record("ext", 5, 2.0);
        assert_eq!(log.series.len(), 1);
        assert_eq!(log.get("ext").unwrap().points, vec![(0, 1.0), (5, 2.0)]);
    }

    #[test]
    fn many_series_many_samples() {
        // Exercises the indexed fast path: interleaved records across many
        // series must land on the right series in creation order.
        let mut log = TraceLog::new();
        for t in 0..100u64 {
            for s in 0..50 {
                log.record(&format!("s{s}"), t, s as f64);
            }
        }
        assert_eq!(log.series.len(), 50);
        assert_eq!(log.series[0].name, "s0");
        assert_eq!(log.get("s49").unwrap().points.len(), 100);
        assert_eq!(log.get("s49").unwrap().last(), 49.0);
    }

    #[test]
    fn empty_series_stats_are_zero() {
        let s = TraceSeries::default();
        assert_eq!(s.last(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.mean(), 0.0);
    }
}
