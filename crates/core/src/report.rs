//! Human-readable report rendering and the "push to github.com" step.
//!
//! Fig. 5 steps 6–7: the proxy "analyzes the results and transforms them to
//! a human readable format … pairs the results to the original documents,
//! and saves them by committing to a local git repository. Finally, the
//! proxy pushes the results to github.com." Here the repository is a local
//! directory of sequentially numbered commits with a log — version tracking
//! and linkability without the network.

use crate::classify::NestClassification;
use crate::engine::{Engine, WarningKind};
use crate::stack::render;
use ceres_ast::LoopId;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Render the per-loop profile (Sec. 3.2 data) as a text table.
pub fn render_loop_profile(engine: &Engine) -> String {
    let mut ids: Vec<LoopId> = engine.records.keys().copied().collect();
    ids.sort();
    let mut out = String::from("loop            instances   trips(avg±sd)   time-ms(total)\n");
    for id in ids {
        let rec = &engine.records[&id];
        let name = engine
            .loops
            .get(&id)
            .map(|l| l.display_name())
            .unwrap_or_else(|| format!("{id}"));
        let time_ms = rec.time_ticks.total() / ceres_interp::TICKS_PER_MS as f64;
        out.push_str(&format!(
            "{:<16}{:>9}   {:>13}   {:>14.2}{}\n",
            name,
            rec.instances,
            rec.trips.display_pm(),
            time_ms,
            if rec.recursion_tainted {
                "  [recursion: results discarded]"
            } else {
                ""
            },
        ));
    }
    out
}

/// Render the dependence warnings the way the paper presents them (Sec. 3.3).
pub fn render_warnings(engine: &Engine) -> String {
    let mut out = String::new();
    if engine.warnings.is_empty() {
        out.push_str("no problematic accesses recorded\n");
        return out;
    }
    let mut warnings: Vec<_> = engine.warnings.iter().collect();
    // Full total order: (kind, subject) alone leaves ties — the same
    // subject flagged in two nests, or via two write ops — to insertion
    // order, which depends on runtime event order rather than anything a
    // reader can predict. Sort the remaining dimensions explicitly
    // (nest-root LoopId, op, rendered characterization) so a report is a
    // pure function of the warning *set*.
    warnings.sort_by_cached_key(|w| {
        (
            w.kind,
            w.subject.clone(),
            w.nest_root,
            w.op.clone(),
            render(&w.characterization, &engine.loops),
        )
    });
    for w in warnings {
        match w.kind {
            WarningKind::Recursion => {
                out.push_str(&format!("warning: recursion through {}\n", w.subject));
                out.push_str("  the loop stack grew through a recursive call; results for this nest are discarded\n");
            }
            _ => {
                out.push_str(&format!(
                    "warning: {} `{}`{} ({} accesses)\n",
                    w.kind.describe(),
                    w.subject,
                    w.op.as_deref()
                        .map(|o| format!(" via `{o}`"))
                        .unwrap_or_default(),
                    w.count
                ));
                out.push_str(&format!(
                    "  {}\n",
                    render(&w.characterization, &engine.loops)
                ));
            }
        }
    }
    out
}

/// Render nest classifications as a Table 3-style block.
pub fn render_nest_table(engine: &Engine, rows: &[NestClassification]) -> String {
    let mut out = String::from(
        "%loops  instances  trips        divergence  DOM  breaking-deps  parallelization\n",
    );
    for r in rows {
        let name = engine
            .loops
            .get(&r.root)
            .map(|l| l.display_name())
            .unwrap_or_else(|| format!("{}", r.root));
        out.push_str(&format!(
            "{:>5.0}   {:>9}  {:>11}  {:<10}  {:<3}  {:<13}  {:<9}  # {}\n",
            r.pct_loop_time,
            r.instances,
            r.trips.display_pm(),
            r.divergence.as_str(),
            if r.dom_access { "yes" } else { "no" },
            r.dependence_difficulty.as_str(),
            r.parallelization_difficulty.as_str(),
            name,
        ));
    }
    out
}

/// Render the runtime polymorphism observations (paper Sec. 2.4 / 4.2).
pub fn render_polymorphism(engine: &Engine) -> String {
    let poly = engine.polymorphic_subjects();
    if poly.is_empty() {
        return "no polymorphic variables observed within loops\n".to_string();
    }
    let mut out = String::new();
    for (subject, types) in poly {
        out.push_str(&format!(
            "polymorphic: `{subject}` observed as {}\n",
            types.join(", ")
        ));
    }
    out
}

/// A local "github repository" of analysis reports.
pub struct ReportRepo {
    root: PathBuf,
    commits: u64,
}

impl ReportRepo {
    /// Open (creating if needed) a report repository at `root`.
    pub fn open(root: impl AsRef<Path>) -> std::io::Result<ReportRepo> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        // Resume the commit counter from the existing log.
        let commits = match fs::read_to_string(root.join("log.txt")) {
            Ok(s) => s.lines().count() as u64,
            Err(_) => 0,
        };
        Ok(ReportRepo { root, commits })
    }

    /// Commit a set of named files under `app`; returns the commit id.
    pub fn commit(&mut self, app: &str, files: &[(&str, String)]) -> std::io::Result<String> {
        self.commits += 1;
        let id = format!("commit-{:04}", self.commits);
        let dir = self.root.join(app).join(&id);
        fs::create_dir_all(&dir)?;
        for (name, content) in files {
            fs::write(dir.join(name), content)?;
        }
        let mut log = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.root.join("log.txt"))?;
        writeln!(log, "{id} {app} ({} files)", files.len())?;
        Ok(id)
    }

    /// Root directory (for tests and for linking reports in docs).
    pub fn root(&self) -> &Path {
        &self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_instrumented;
    use ceres_instrument::Mode;

    #[test]
    fn loop_profile_renders() {
        let (_i, eng) = run_instrumented(
            "for (var i = 0; i < 10; i++) { var x = i * 2; }",
            Mode::LoopProfile,
            1,
        )
        .unwrap();
        let eng = eng.borrow();
        let s = render_loop_profile(&eng);
        assert!(s.contains("for(line 1)"), "{s}");
        assert!(s.contains("10"), "{s}");
    }

    #[test]
    fn warnings_render_paper_style() {
        let (_i, eng) = run_instrumented(
            "var acc = { v: 0 };\nfor (var i = 0; i < 8; i++) { acc.v += i; }",
            Mode::Dependence,
            1,
        )
        .unwrap();
        let eng = eng.borrow();
        let s = render_warnings(&eng);
        assert!(s.contains("warning:"), "{s}");
        assert!(s.contains("acc.v"), "{s}");
        assert!(s.contains("ok dependence"), "{s}");
    }

    #[test]
    fn warning_order_is_independent_of_insertion_order() {
        use crate::engine::{Engine, Warning, WarningKind};
        use crate::stack::{Characterization, Split};
        use ceres_ast::LoopId;

        // Two warnings that tie on (kind, subject): same accumulator
        // flagged in two separate nests. Under the old sort the report
        // order was whatever order the runtime produced them in.
        let mk = |root: u32| Warning {
            kind: WarningKind::VarWrite,
            subject: "g".to_string(),
            characterization: Characterization {
                loops: vec![LoopId(root)],
                split: Some(Split::Iteration(0)),
            },
            op: Some("=".to_string()),
            nest_root: LoopId(root),
            count: 1,
        };
        let render_with = |order: [u32; 2]| {
            let mut eng = Engine::new(Mode::Dependence, vec![]);
            for r in order {
                eng.warnings.push(mk(r));
            }
            render_warnings(&eng)
        };
        let forward = render_with([1, 2]);
        let reversed = render_with([2, 1]);
        assert_eq!(forward, reversed, "report must not depend on event order");
        // And the explicit tie-break is the nest-root LoopId.
        let first = forward.find("L1 ").expect("loop 1 rendered");
        let second = forward.find("L2 ").expect("loop 2 rendered");
        assert!(first < second, "{forward}");
    }

    #[test]
    fn repo_commits_sequentially_and_resumes() {
        let dir = std::env::temp_dir().join(format!("ceres-report-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut repo = ReportRepo::open(&dir).unwrap();
            let id1 = repo
                .commit("app-a", &[("report.txt", "hello".into())])
                .unwrap();
            let id2 = repo
                .commit("app-b", &[("report.txt", "world".into())])
                .unwrap();
            assert_eq!(id1, "commit-0001");
            assert_eq!(id2, "commit-0002");
            assert!(dir.join("app-a/commit-0001/report.txt").exists());
        }
        {
            // Reopening resumes the counter.
            let mut repo = ReportRepo::open(&dir).unwrap();
            let id3 = repo.commit("app-a", &[("r.txt", "again".into())]).unwrap();
            assert_eq!(id3, "commit-0003");
        }
        let log = fs::read_to_string(dir.join("log.txt")).unwrap();
        assert_eq!(log.lines().count(), 3);
        let _ = fs::remove_dir_all(&dir);
    }
}
