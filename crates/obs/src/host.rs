//! Host identification for bench and obs outputs.

use crate::snapshot::Value;

/// The machine a measurement ran on.
///
/// Bench throughput numbers (`BENCH_sim.json`, the `sweep --bench-json`
/// records) are only interpretable next to the host that produced them —
/// a flat 8-thread scaling ratio on a single-vCPU runner is expected, the
/// same number on an 8-core box is a regression. This block carries just
/// enough to tell those apart. It never goes into determinism-checked
/// artifacts (it contains a wall-clock timestamp).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    /// Available logical CPUs (`std::thread::available_parallelism`).
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`, when readable.
    pub model_name: Option<String>,
    /// Capture time, seconds since the UNIX epoch.
    pub timestamp_unix: u64,
}

impl HostInfo {
    /// Captures the current host.
    pub fn capture() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let model_name = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        });
        let timestamp_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        HostInfo { nproc, model_name, timestamp_unix }
    }

    /// The host block as a JSON object value.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("nproc".into(), Value::U64(self.nproc as u64)),
            ("model_name".into(), self.model_name.clone().map_or(Value::Null, Value::Str)),
            ("timestamp_unix".into(), Value::U64(self.timestamp_unix)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_is_sane() {
        let h = HostInfo::capture();
        assert!(h.nproc >= 1);
        assert!(h.timestamp_unix > 1_600_000_000, "clock looks unset: {}", h.timestamp_unix);
    }

    #[test]
    fn inline_json_shape() {
        let h = HostInfo {
            nproc: 8,
            model_name: Some("Fake \"CPU\" 9000".into()),
            timestamp_unix: 1_700_000_000,
        };
        let j = h.to_value().to_json_inline();
        assert!(j.starts_with("{\"nproc\": 8, \"model_name\": \"Fake \\\"CPU\\\" 9000\""));
        assert!(j.ends_with("\"timestamp_unix\": 1700000000}"));
        let none = HostInfo { nproc: 1, model_name: None, timestamp_unix: 0 };
        assert_eq!(
            none.to_value().to_json_inline(),
            "{\"nproc\": 1, \"model_name\": null, \"timestamp_unix\": 0}"
        );
    }

    #[test]
    fn value_shape() {
        let h = HostInfo { nproc: 2, model_name: None, timestamp_unix: 5 };
        let j = h.to_value().to_json(0);
        assert!(j.contains("\"nproc\": 2"));
        assert!(j.contains("\"model_name\": null"));
    }
}
