//! `summarize`: median, quartiles and spread of repeated runs, per file
//! (one set of runs), workload and metric, checked against the bounds in
//! `BENCHMARK.json`.
//!
//! Each input line is `<workload> <seed> <result JSON>`, as
//! `baseline.sh` writes them. The JSON summary goes to stdout; a table
//! flagging every end-to-end spread above its bound or above a third of
//! it, `setup_s` included, and every median that moved by more than its
//! bound from the first file to a later one, goes to stderr.

use crate::stats::{iqr_share, median, quartiles};
use crate::trace::obj;
use serde_json::Value;
use std::collections::BTreeMap;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// metric → (bound, lower is better), for the end-to-end metrics.
fn bounds() -> Result<BTreeMap<String, (f64, bool)>, String> {
    let doc = serde_json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(|v| v.as_array())
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    Ok(list
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                (
                    m.get("bound")?.as_f64()?,
                    m.get("better")?.as_str()? == "lower",
                ),
            ))
        })
        .collect())
}

/// workload → metric → values, from one file.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_set(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = Set::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |why: &str| format!("{path}:{}: {why}", n + 1);
        let mut parts = line.splitn(3, ' ');
        let (Some(workload), Some(_seed), Some(json)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(bad("want `<workload> <seed> <json>`"));
        };
        let doc = serde_json::parse(json).map_err(|e| bad(&e.to_string()))?;
        if doc.get("correct").and_then(|c| c.as_bool()) != Some(true) {
            return Err(bad("a run was not correct"));
        }
        let metrics = doc
            .get("metrics")
            .and_then(|m| m.as_map())
            .ok_or_else(|| bad("no metrics"))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(|v| v.as_f64()) {
                set.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(set)
}

pub fn summarize(files: &[String]) -> Result<String, String> {
    if files.is_empty() {
        return Err("give one file of runs per set".to_string());
    }
    let bounds = bounds()?;
    let sets = files
        .iter()
        .map(|f| read_set(f))
        .collect::<Result<Vec<_>, _>>()?;
    let first_medians: BTreeMap<(String, String), f64> = sets[0]
        .iter()
        .flat_map(|(w, ms)| {
            ms.iter()
                .filter_map(move |(m, v)| Some(((w.clone(), m.clone()), median(v)?)))
        })
        .collect();
    eprintln!(
        "{:<10} {:<12} {:<18} {:>12} {:>12} {:>12} {:>7} {:>7}",
        "set", "workload", "metric", "median", "q1", "q3", "spread", "shift"
    );
    let mut out = Vec::new();
    for (file, set) in files.iter().zip(&sets) {
        let set_name = file.rsplit('/').next().unwrap_or(file);
        let mut workloads = Vec::new();
        for (workload, metrics) in set {
            let mut rows = Vec::new();
            for (name, values) in metrics {
                let (Some(med), Some((q1, q3))) = (median(values), quartiles(values)) else {
                    continue;
                };
                let spread = iqr_share(values).unwrap_or(0.0);
                let first = first_medians
                    .get(&(workload.clone(), name.clone()))
                    .copied()
                    .unwrap_or(med);
                let worse_by = match bounds.get(name) {
                    Some(&(_, lower)) if first != 0.0 => {
                        let change = (med - first) / first.abs();
                        if lower {
                            change
                        } else {
                            -change
                        }
                    }
                    _ => 0.0,
                };
                let mut flag = String::new();
                if let Some(&(bound, _)) = bounds.get(name) {
                    if spread > bound {
                        flag += " spread>bound";
                    } else if spread > bound / 3.0 {
                        flag += " spread>bound/3";
                    }
                    if worse_by > bound {
                        flag += " shift>bound";
                    }
                }
                eprintln!(
                    "{:<10} {:<12} {:<18} {:>12.4} {:>12.4} {:>12.4} {:>7.4} {:>7.4}{flag}",
                    set_name, workload, name, med, q1, q3, spread, worse_by
                );
                rows.push((
                    name.clone(),
                    obj(vec![
                        ("n", Value::U64(values.len() as u64)),
                        ("median", Value::F64(med)),
                        ("q1", Value::F64(q1)),
                        ("q3", Value::F64(q3)),
                        ("spread", Value::F64(spread)),
                        ("worse_than_first_set", Value::F64(worse_by)),
                    ]),
                ));
            }
            workloads.push((workload.clone(), Value::Map(rows)));
        }
        out.push((set_name.to_string(), Value::Map(workloads)));
    }
    Ok(format!("{}\n", Value::Map(out)))
}
