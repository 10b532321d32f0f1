//! End-to-end pipeline (Fig. 5) and survey (Figs. 1–4) integration checks.

use ceres_core::{analyze, publish_report, AnalyzeOptions, Document, Mode, ReportRepo, WebServer};
use ceres_survey as survey;

#[test]
fn fig5_pipeline_produces_reports_on_disk() {
    let mut server = WebServer::new();
    server.publish(
        "index.html",
        Document::Html(
            "<html><head><title>demo</title></head><body>\n\
             <canvas id=\"demo-canvas\"></canvas>\n\
             <script>\n\
             var ctx = document.getElementById(\"demo-canvas\").getContext(\"2d\");\n\
             var img = ctx.getImageData(0, 0, 16, 16);\n\
             var i;\n\
             for (i = 0; i < img.data.length; i += 4) { img.data[i] = 255 - img.data[i]; }\n\
             ctx.putImageData(img, 0, 0);\n\
             console.log(\"inverted\", img.data.length / 4, \"pixels\");\n\
             </script></body></html>"
                .to_string(),
        ),
    );
    let mut run = analyze(
        &server,
        "index.html",
        AnalyzeOptions {
            mode: Mode::Dependence,
            ..AnalyzeOptions::default()
        },
        Box::new(|_, _| Ok(())),
    )
    .expect("pipeline");
    assert_eq!(run.console, vec!["inverted 256 pixels"]);

    let dir = std::env::temp_dir().join(format!("ceres-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut repo = ReportRepo::open(&dir).unwrap();
    let commit = publish_report(&mut run, &mut repo, "pixel-invert").unwrap();
    assert_eq!(run.steps.len(), 7, "all seven Fig. 5 steps traced");
    let base = dir.join("pixel-invert").join(&commit);
    for f in [
        "timing.txt",
        "loops.txt",
        "warnings.txt",
        "polymorphism.txt",
        "nests.txt",
        "source.js",
    ] {
        let content = std::fs::read_to_string(base.join(f)).unwrap_or_else(|e| {
            panic!("missing report file {f}: {e}");
        });
        assert!(!content.is_empty(), "{f} empty");
    }
    // The warnings file names the image-data sweep; the nest table
    // classifies it parallelizable (disjoint per-pixel writes).
    let nests = std::fs::read_to_string(base.join("nests.txt")).unwrap();
    assert!(nests.contains("easy"), "{nests}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn focused_analysis_limits_warnings() {
    let mut server = WebServer::new();
    server.publish(
        "app.js",
        Document::Js(
            "var a = { v: 0 };\nvar b = { v: 0 };\n\
             var i, j;\n\
             for (i = 0; i < 8; i++) { a.v += i; }\n\
             for (j = 0; j < 8; j++) { b.v += j; }"
                .to_string(),
        ),
    );
    let run = analyze(
        &server,
        "app.js",
        AnalyzeOptions {
            mode: Mode::Dependence,
            focus: Some(ceres_ast::LoopId(2)),
            ..AnalyzeOptions::default()
        },
        Box::new(|_, _| Ok(())),
    )
    .expect("pipeline");
    let eng = run.engine.borrow();
    assert!(eng.warnings.iter().any(|w| w.subject == "b.v"));
    assert!(
        !eng.warnings.iter().any(|w| w.subject == "a.v"),
        "focus must exclude loop 1"
    );
}

#[test]
fn survey_figures_reproduce_paper_marginals() {
    let pop = survey::generate(2015);
    assert_eq!(pop.len(), 174);

    let (rows, no_answer) = survey::fig1(&pop, &survey::Coder::primary());
    assert_eq!(no_answer, 45);
    assert_eq!(rows[0].category, survey::TrendCategory::Games);
    assert!((rows[0].pct - 31.0).abs() < 1.0);

    let f2 = survey::fig2(&pop);
    let by = |c: survey::Component| f2.iter().find(|r| r.component == c).unwrap();
    // The paper's Sec. 2.2 headline percentages.
    assert!((by(survey::Component::ResourceLoading).bottleneck_pct() - 52.0).abs() < 1.0);
    assert!((by(survey::Component::DomManipulation).bottleneck_pct() - 49.0).abs() < 1.0);
    assert!((by(survey::Component::NumberCrunching).bottleneck_pct() - 21.0).abs() < 1.0);

    let f3 = survey::fig3(&pop);
    assert!((f3.pct(1) - 31.0).abs() < 1.0, "strongly functional");
    assert!((f3.pct(5) - 5.0).abs() < 1.0, "strongly imperative");

    let f4 = survey::fig4(&pop);
    assert!((f4.pct(1) - 58.0).abs() < 1.0, "purely monomorphic");
}

#[test]
fn survey_population_varies_by_seed_but_not_marginals() {
    let a = survey::generate(1);
    let b = survey::generate(2);
    // Different assignment…
    let style = |pop: &[survey::Respondent]| -> Vec<Option<u8>> {
        pop.iter().map(|r| r.style_pref).collect()
    };
    assert_ne!(style(&a), style(&b));
    // …same aggregates.
    assert_eq!(survey::fig3(&a).counts, survey::fig3(&b).counts);
    assert_eq!(survey::fig4(&a).counts, survey::fig4(&b).counts);
    let (rows_a, _) = survey::fig1(&a, &survey::Coder::primary());
    let (rows_b, _) = survey::fig1(&b, &survey::Coder::primary());
    let counts =
        |rows: &[survey::Fig1Row]| -> Vec<usize> { rows.iter().map(|r| r.count).collect() };
    assert_eq!(counts(&rows_a), counts(&rows_b));
}
