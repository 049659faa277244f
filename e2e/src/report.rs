//! The result of one run of one workload: built by the workload, printed
//! as the contract line, and round-tripped through `nimble_obs::json` for
//! `e2e all` and `e2e compare`.

use crate::catalog;
use crate::stats::Sliced;
use nimble_obs::json::JsonValue;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Per-slice values behind a timing taken from the slices of a window.
    pub slices: Vec<f64>,
}

/// What the run resolved to, echoed so two results can be told apart.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Config {
    pub isa: String,
    pub profile: String,
    pub nproc: u64,
    pub git_rev: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub config: Config,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Record {
    /// A record holding every metric of its kind at zero: all end-to-end
    /// metrics for an untraced run, all per-layer metrics for a traced one.
    pub fn new(workload: &str, seed: u64, seconds: u64, traced: bool, config: Config) -> Record {
        let metric = |name: &str, unit: &str| Metric {
            name: name.to_string(),
            value: 0.0,
            unit: unit.to_string(),
            slices: Vec::new(),
        };
        let metrics = if traced {
            catalog::PER_LAYER
                .iter()
                .map(|m| metric(m.name, m.unit))
                .collect()
        } else {
            catalog::END_TO_END
                .iter()
                .map(|m| metric(m.name, m.unit))
                .collect()
        };
        Record {
            workload: workload.to_string(),
            seed,
            seconds,
            traced,
            config,
            attempted: 0,
            failed: 0,
            metrics,
        }
    }

    fn slot(&mut self, name: &str) -> &mut Metric {
        self.metrics
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog for this run"))
    }

    /// Set a metric. A value that is not finite is a bug in the probe, not
    /// a measurement: it is stored as zero so the line stays valid JSON.
    pub fn set(&mut self, name: &str, value: f64) {
        self.slot(name).value = if value.is_finite() { value } else { 0.0 };
    }

    pub fn set_sliced(&mut self, name: &str, sliced: Sliced) {
        self.set(name, sliced.value);
        self.slot(name).slices = sliced.slices;
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The last line of a run's standard output.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let slices: Vec<String> = m.slices.iter().map(|v| num(*v)).collect();
                format!(
                    "{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"slices\": [{}]}}",
                    m.name,
                    num(m.value),
                    m.unit,
                    slices.join(", ")
                )
            })
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \
             \"config\": {{\"isa\": \"{}\", \"profile\": \"{}\", \"nproc\": {}, \"git_rev\": \"{}\"}}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": [{}]}}",
            self.workload,
            self.seed,
            self.seconds,
            self.traced,
            self.config.isa,
            self.config.profile,
            self.config.nproc,
            self.config.git_rev,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn from_json(v: &JsonValue) -> Result<Record, String> {
        let text = |v: &JsonValue, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or(format!("missing string {key}"))
        };
        let whole = |v: &JsonValue, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or(format!("missing whole number {key}"))
        };
        let config = v.get("config").ok_or("missing config")?;
        let mut metrics = Vec::new();
        for m in v
            .get("metrics")
            .and_then(JsonValue::as_arr)
            .ok_or("missing metrics")?
        {
            let slices = m
                .get("slices")
                .and_then(JsonValue::as_arr)
                .ok_or("missing slices")?
                .iter()
                .map(|s| s.as_f64().ok_or("slice is not a number"))
                .collect::<Result<Vec<f64>, _>>()?;
            metrics.push(Metric {
                name: text(m, "name")?,
                value: m
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .ok_or("missing value")?,
                unit: text(m, "unit")?,
                slices,
            });
        }
        Ok(Record {
            workload: text(v, "workload")?,
            seed: whole(v, "seed")?,
            seconds: whole(v, "seconds")?,
            traced: v
                .get("traced")
                .and_then(JsonValue::as_bool)
                .ok_or("missing traced")?,
            config: Config {
                isa: text(config, "isa")?,
                profile: text(config, "profile")?,
                nproc: whole(config, "nproc")?,
                git_rev: text(config, "git_rev")?,
            },
            attempted: whole(v, "attempted")?,
            failed: whole(v, "failed")?,
            metrics,
        })
    }
}

/// A number as JSON, with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The file `e2e all` writes and `e2e compare` reads: every record of one
/// set of runs. No gain is claimed by a benchmark run, so `claim` is null.
pub fn set_to_json(records: &[Record]) -> String {
    let rows: Vec<String> = records
        .iter()
        .map(|r| format!("    {}", r.to_json()))
        .collect();
    format!(
        "{{\n  \"bench\": \"e2e\",\n  \"records\": [\n{}\n  ],\n  \"claim\": null\n}}\n",
        rows.join(",\n")
    )
}

pub fn set_from_json(text: &str) -> Result<Vec<Record>, String> {
    let v = nimble_obs::json::parse(text)?;
    if v.get("bench").and_then(JsonValue::as_str) != Some("e2e") {
        return Err("not an e2e result file".to_string());
    }
    v.get("records")
        .and_then(JsonValue::as_arr)
        .ok_or("missing records")?
        .iter()
        .map(Record::from_json)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        let config = Config {
            isa: "avx2".into(),
            profile: "server".into(),
            nproc: 2,
            git_rev: "abc123".into(),
        };
        let mut r = Record::new("lstm_stream", 7, 12, false, config);
        r.attempted = 1000;
        r.set("setup_s", 0.123456789012);
        r.set_sliced(
            "latency_p50_ms",
            Sliced {
                value: 0.25,
                slices: vec![0.2, 0.25, 0.3],
            },
        );
        r
    }

    #[test]
    fn a_result_file_round_trips() {
        let records = vec![
            sample(),
            Record::new("bert_stream", 1, 12, true, Config::default()),
        ];
        let text = set_to_json(&records);
        assert_eq!(set_from_json(&text).unwrap(), records);
        assert!(text.trim_end().ends_with("\"claim\": null\n}"));
        assert!(set_from_json("{\"bench\": \"other\"}").is_err());
    }

    #[test]
    fn the_contract_line_has_exactly_the_four_keys() {
        let line = sample().contract_line();
        let v = nimble_obs::json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), catalog::END_TO_END.len());
        let setup = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.123456789012));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        let traced = Record::new("bert_stream", 1, 12, true, Config::default()).contract_line();
        let v = nimble_obs::json::parse(&traced).unwrap();
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), catalog::PER_LAYER.len());
        assert_eq!(v.get("attempted").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn a_value_that_is_not_finite_is_stored_as_zero() {
        let mut r = sample();
        r.set("setup_s", f64::NAN);
        assert_eq!(r.get("setup_s").unwrap().value, 0.0);
    }
}
