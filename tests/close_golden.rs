//! Golden-output tests for the closing transformation.
//!
//! One golden file per corpus program, holding the byte-exact
//! pretty-printed closed program plus its close reports. Any change to
//! the transformation's output — intended or not — shows up as a
//! byte-level diff here. Regenerate with `BLESS=1 cargo test --test
//! close_golden` and review the diff like any other code change.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn corpus_files() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&root)
        .unwrap()
        .chain(std::fs::read_dir(root.join("cyclic")).unwrap())
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "mc"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no corpus programs found");
    files
}

/// The canonical close output, through the pass pipeline: every
/// procedure listing of the closed program, then the per-procedure
/// report lines in the `--stats` format.
fn close_text(src: &str) -> String {
    let run = closer::Pipeline::new(closer::PipelineOptions::default())
        .close(src)
        .unwrap();
    let mut out = String::new();
    for p in &run.closed.program.procs {
        writeln!(out, "{}", cfgir::proc_to_listing(p)).unwrap();
    }
    for (r, cmp) in run
        .closed
        .reports
        .iter()
        .zip(closer::compare(&run.program, &run.closed.program))
    {
        writeln!(
            out,
            "{}: nodes {} -> {} (+{} toss), params removed {}, branching {} -> {}",
            r.name,
            r.nodes_before,
            r.nodes_kept,
            r.toss_nodes_inserted,
            r.params_removed,
            cmp.degree_before,
            cmp.degree_after
        )
        .unwrap();
    }
    out
}

#[test]
fn corpus_close_output_matches_golden() {
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let bless = std::env::var_os("BLESS").is_some();
    if bless {
        std::fs::create_dir_all(&golden_dir).unwrap();
    }
    for file in corpus_files() {
        let name = file.file_stem().unwrap().to_str().unwrap();
        let src = std::fs::read_to_string(&file).unwrap();
        let got = close_text(&src);
        let golden_path = golden_dir.join(format!("{name}.close.txt"));
        if bless {
            std::fs::write(&golden_path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!("{name}: missing golden ({e}); run `BLESS=1 cargo test --test close_golden`")
        });
        assert_eq!(
            got, want,
            "{name}: closed output drifted from tests/golden/{name}.close.txt \
             (BLESS=1 to regenerate)"
        );
    }
}
