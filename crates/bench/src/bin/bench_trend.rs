//! Per-PR performance trajectory from the archived bench artifacts.
//!
//! Reads every `BENCH_pr<N>.json` in the given directory (default `.`) and
//! prints a markdown trajectory table — staged-sweep time, its
//! runner-normalized form `staged_norm` (staged ÷ calibration-kernel
//! seconds) and the staged-vs-monolithic ratio per PR, plus the solver
//! columns (branch-and-bound node ratio, cross-point warm-start hit rate
//! and `ilp_norm`, the `ilp_solve` fast pass ÷ calibration-kernel seconds)
//! once an artifact carries them. Two check modes gate CI:
//!
//! ```text
//! bench_trend [--dir D]                 # print the trajectory table
//! bench_trend --check                   # newest archive vs the previous one
//! bench_trend --check-fresh FILE        # a fresh BENCH_eval.json or
//!                                       # BENCH_ilp.json vs newest archive
//! ```
//!
//! Both checks gate each normalized figure — `staged_norm` and `ilp_norm` —
//! against the newest other artifact that carries it, and fail (exit 1)
//! when it is more than 25% higher (slower). A fresh file must carry at
//! least one of them. The staged-vs-monolithic ratio is informational only: the monolithic
//! reference shares Stage B with the staged path, so making Stage B cheaper
//! lowers the ratio without any regression in staging. Artifacts are flat
//! JSON written by the benches themselves; fields are extracted with a
//! string scanner so the tool needs no JSON dependency.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Maximum tolerated growth of a gated figure between artifacts.
const MAX_REGRESSION: f64 = 0.25;

/// Reads one gated figure from an archive.
type Gated = fn(&Artifact) -> Option<f64>;

/// The runner-normalized figures the checks gate: the JSON field and its
/// value in an archive.
const GATED: [(&str, Gated); 2] =
    [("staged_norm", |a| a.staged_norm), ("ilp_norm", |a| a.ilp_norm)];

/// Extracts the number following the first `"key":` in `json`.
fn field(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

struct Artifact {
    pr: u32,
    speedup: Option<f64>,
    staged_ms: Option<f64>,
    staged_norm: Option<f64>,
    node_ratio: Option<f64>,
    warm_hit_rate: Option<f64>,
    ilp_norm: Option<f64>,
}

fn load(pr: u32, path: &Path) -> std::io::Result<Artifact> {
    let json = std::fs::read_to_string(path)?;
    Ok(Artifact {
        pr,
        speedup: field(&json, "speedup"),
        staged_ms: field(&json, "staged_seconds").map(|s| s * 1e3),
        staged_norm: field(&json, "staged_norm"),
        node_ratio: field(&json, "node_ratio"),
        warm_hit_rate: field(&json, "warm_hit_rate"),
        ilp_norm: field(&json, "ilp_norm"),
    })
}

/// All `BENCH_pr<N>.json` artifacts in `dir`, sorted by PR number.
fn artifacts(dir: &Path) -> std::io::Result<Vec<Artifact>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if let Some(num) = name.strip_prefix("BENCH_pr").and_then(|n| n.strip_suffix(".json")) {
            if let Ok(pr) = num.parse::<u32>() {
                found.push(load(pr, &path)?);
            }
        }
    }
    found.sort_by_key(|a| a.pr);
    Ok(found)
}

fn fmt(v: Option<f64>, spec: impl Fn(f64) -> String) -> String {
    v.map_or_else(|| "—".to_string(), spec)
}

fn table(rows: &[Artifact]) -> String {
    let mut out = String::new();
    out.push_str(
        "| PR | staged sweep (ms) | staged_norm | staged vs monolithic | B&B node ratio | warm-start hit rate | ilp_norm |\n",
    );
    out.push_str("|---:|---:|---:|---:|---:|---:|---:|\n");
    for a in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} |\n",
            a.pr,
            fmt(a.staged_ms, |v| format!("{v:.1}")),
            fmt(a.staged_norm, |v| format!("{v:.3}")),
            fmt(a.speedup, |v| format!("{v:.2}×")),
            fmt(a.node_ratio, |v| format!("{v:.1}× fewer")),
            fmt(a.warm_hit_rate, |v| format!("{:.0}%", v * 100.0)),
            fmt(a.ilp_norm, |v| format!("{v:.2}")),
        ));
    }
    out
}

/// Fails when `fresh_norm` is more than 25% above `base_norm`, the
/// gated figure `key` of `BENCH_pr<base_pr>`.
fn check(key: &str, base_pr: u32, base_norm: f64, fresh_name: &str, fresh_norm: f64) -> ExitCode {
    let ceiling = base_norm * (1.0 + MAX_REGRESSION);
    if fresh_norm > ceiling {
        eprintln!(
            "bench_trend: {key} regressed >25%: {fresh_name} {fresh_norm:.3} \
             vs BENCH_pr{base_pr} {base_norm:.3} (ceiling {ceiling:.3})"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "bench_trend: {fresh_name} {key} {fresh_norm:.3} vs BENCH_pr{base_pr} \
         {base_norm:.3} — within the 25% regression budget"
    );
    ExitCode::SUCCESS
}

/// Gates every figure `fresh_json` carries against the newest archive in
/// `rows` that carries the same figure; a file that carries none fails.
fn check_fresh(rows: &[Artifact], fresh_name: &str, fresh_json: &str) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    let mut carried = false;
    for (key, of) in GATED {
        let Some(fresh) = field(fresh_json, key) else { continue };
        carried = true;
        match rows.iter().rev().find_map(|a| Some((a.pr, of(a)?))) {
            Some((pr, base)) => {
                if check(key, pr, base, fresh_name, fresh) == ExitCode::FAILURE {
                    code = ExitCode::FAILURE;
                }
            }
            None => println!("bench_trend: no archive carries {key}; nothing to check"),
        }
    }
    if !carried {
        eprintln!("bench_trend: {fresh_name} has no \"staged_norm\" or \"ilp_norm\" field");
        return ExitCode::FAILURE;
    }
    code
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut dir = PathBuf::from(".");
    let mut mode_check = false;
    let mut fresh: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dir" => dir = PathBuf::from(args.next().expect("--dir takes a path")),
            "--check" => mode_check = true,
            "--check-fresh" => {
                fresh = Some(PathBuf::from(args.next().expect("--check-fresh takes a file")));
            }
            other => {
                eprintln!("bench_trend: unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let rows = match artifacts(&dir) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("bench_trend: cannot read {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    if rows.is_empty() {
        eprintln!("bench_trend: no BENCH_pr*.json artifacts in {}", dir.display());
        return ExitCode::FAILURE;
    }

    if let Some(fresh_path) = fresh {
        let json = match std::fs::read_to_string(&fresh_path) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("bench_trend: cannot read {}: {e}", fresh_path.display());
                return ExitCode::FAILURE;
            }
        };
        return check_fresh(&rows, &fresh_path.display().to_string(), &json);
    }
    if mode_check {
        let mut code = ExitCode::SUCCESS;
        for (key, of) in GATED {
            let normed: Vec<(u32, f64)> =
                rows.iter().filter_map(|a| Some((a.pr, of(a)?))).collect();
            let [.., (prev_pr, prev), (pr, norm)] = normed[..] else {
                println!("bench_trend: fewer than two artifacts carry {key}; nothing to check");
                continue;
            };
            if check(key, prev_pr, prev, &format!("BENCH_pr{pr}"), norm) == ExitCode::FAILURE {
                code = ExitCode::FAILURE;
            }
        }
        return code;
    }

    print!("{}", table(&rows));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_scanner_reads_nested_and_scientific_numbers() {
        let json = r#"{ "speedup": 3.774, "stages": { "op": { "hit_rate": 0.7280 } },
                        "solver": { "node_ratio": 12.5, "warm_hit_rate": 1e0 } }"#;
        assert_eq!(field(json, "speedup"), Some(3.774));
        assert_eq!(field(json, "hit_rate"), Some(0.728));
        assert_eq!(field(json, "node_ratio"), Some(12.5));
        assert_eq!(field(json, "warm_hit_rate"), Some(1.0));
        assert_eq!(field(json, "absent"), None);
    }

    #[test]
    fn table_renders_missing_columns_as_dashes() {
        let rows = vec![
            artifact(6, Some(3.05), Some(6.6), None),
            Artifact {
                node_ratio: Some(11.0),
                warm_hit_rate: Some(1.0),
                ..artifact(10, Some(4.0), Some(5.0), None)
            },
            artifact(12, Some(1.7), Some(4.4), Some(0.766)),
            Artifact { ilp_norm: Some(61.5), ..artifact(14, Some(1.7), Some(4.4), Some(0.77)) },
        ];
        let t = table(&rows);
        assert!(t.contains("| 6 | 6.6 | — | 3.05× | — | — | — |"), "{t}");
        assert!(t.contains("| 10 | 5.0 | — | 4.00× | 11.0× fewer | 100% | — |"), "{t}");
        assert!(t.contains("| 12 | 4.4 | 0.766 | 1.70× | — | — | — |"), "{t}");
        assert!(t.contains("| 14 | 4.4 | 0.770 | 1.70× | — | — | 61.50 |"), "{t}");
    }

    fn artifact(
        pr: u32,
        speedup: Option<f64>,
        staged_ms: Option<f64>,
        norm: Option<f64>,
    ) -> Artifact {
        Artifact {
            pr,
            speedup,
            staged_ms,
            staged_norm: norm,
            node_ratio: None,
            warm_hit_rate: None,
            ilp_norm: None,
        }
    }

    #[test]
    fn check_fails_only_beyond_the_staged_norm_budget() {
        let key = "staged_norm";
        assert_eq!(check(key, 12, 0.80, "fresh", 0.80 * 1.25), ExitCode::SUCCESS);
        assert_eq!(check(key, 12, 0.80, "fresh", 0.80 * 1.26), ExitCode::FAILURE);
        assert_eq!(check(key, 12, 0.80, "fresh", 0.40), ExitCode::SUCCESS, "faster never fails");
    }

    #[test]
    fn fresh_check_gates_ilp_norm_against_the_newest_archive_carrying_it() {
        let rows = vec![
            Artifact { ilp_norm: Some(40.0), ..artifact(14, None, None, Some(0.8)) },
            artifact(15, None, None, Some(0.8)),
        ];
        let ilp = |v: f64| format!("{{ \"bench\": \"ilp_solve\", \"ilp_norm\": {v} }}");
        assert_eq!(check_fresh(&rows, "fresh", &ilp(50.0)), ExitCode::SUCCESS);
        assert_eq!(check_fresh(&rows, "fresh", &ilp(50.4)), ExitCode::FAILURE);
        let staged = r#"{ "staged_norm": 0.9 }"#;
        assert_eq!(check_fresh(&rows, "fresh", staged), ExitCode::SUCCESS);
        assert_eq!(check_fresh(&rows, "fresh", r#"{ "speedup": 2.0 }"#), ExitCode::FAILURE);
        let unarchived = [artifact(12, None, None, Some(0.8))];
        assert_eq!(check_fresh(&unarchived, "fresh", &ilp(99.0)), ExitCode::SUCCESS);
    }
}
