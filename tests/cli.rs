//! Integration tests for the `reclose` CLI binary.

use std::io::Write as _;
use std::process::Command;

fn reclose(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_reclose"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("reclose-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

const OPEN_SRC: &str = r#"
    extern chan out;
    input x : 0..7;
    proc p(int x) {
        if (x > 3) send(out, 1);
        else send(out, 0);
    }
    process p(x);
"#;

const BUGGY_SRC: &str = r#"
    input x : 0..3;
    chan c[1];
    proc m() {
        int v = env_input(x);
        int n = 0;
        if (v > 1) { n = 2; } else { n = 1; }
        send(c, n);
        int got = recv(c);
        VS_assert(got != 2);
    }
    process m();
"#;

#[test]
fn help_prints_usage() {
    let out = reclose(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: reclose"));
}

#[test]
fn unknown_command_fails() {
    let out = reclose(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn check_reports_open_system() {
    let path = write_temp("open.mc", OPEN_SRC);
    let out = reclose(&["check", path.to_str().unwrap()]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("open system"), "{s}");
}

#[test]
fn check_rejects_invalid_source() {
    let path = write_temp("bad.mc", "proc m() { y = 1; } process m();");
    let out = reclose(&["check", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown variable"));
}

#[test]
fn close_prints_listing_with_toss() {
    let path = write_temp("open2.mc", OPEN_SRC);
    let out = reclose(&["close", path.to_str().unwrap()]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("toss(1)"), "{s}");
}

#[test]
fn close_stats_row_per_proc() {
    let path = write_temp("open3.mc", OPEN_SRC);
    let out = reclose(&["close", path.to_str().unwrap(), "--stats"]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("params removed 1"), "{s}");
}

#[test]
fn close_stats_pass_rows_name_the_chain() {
    let workers = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/workers.mc");
    let out = reclose(&["close", workers, "--stats"]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    let passes: Vec<&str> = s
        .lines()
        .filter_map(|l| l.strip_prefix("pass ")?.split(':').next())
        .collect();
    assert_eq!(
        passes,
        [
            "parse",
            "sema",
            "normalize",
            "cfg-build",
            "refine",
            "points-to",
            "mod-ref",
            "defuse",
            "taint",
            "transform",
            "refine-cex",
        ],
        "{s}"
    );
    assert!(!s.contains("cache hit"), "{s}");
}

#[test]
fn close_dot_is_graphviz() {
    let path = write_temp("open4.mc", OPEN_SRC);
    let out = reclose(&["close", path.to_str().unwrap(), "--dot"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("digraph"));
}

#[test]
fn explore_open_program_requires_mode() {
    let path = write_temp("buggy.mc", BUGGY_SRC);
    let out = reclose(&["explore", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--enumerate"));
}

#[test]
fn explore_close_finds_violation_and_explains() {
    let path = write_temp("buggy2.mc", BUGGY_SRC);
    let out = reclose(&["explore", path.to_str().unwrap(), "--close", "--explain"]);
    assert!(!out.status.success(), "violation sets exit code");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("assertion violation"), "{s}");
    assert!(s.contains("VS_assert VIOLATED"), "{s}");
    assert!(s.contains("send(c, 2)"), "explanation names objects: {s}");
}

#[test]
fn explore_enumerate_matches_closed_verdict() {
    let path = write_temp("buggy3.mc", BUGGY_SRC);
    let a = reclose(&["explore", path.to_str().unwrap(), "--enumerate"]);
    let b = reclose(&["explore", path.to_str().unwrap(), "--close"]);
    assert!(!a.status.success());
    assert!(!b.status.success());
}

#[test]
fn explore_clean_program_succeeds() {
    let path = write_temp(
        "clean.mc",
        "chan c[1]; proc m() { send(c, 1); int x = recv(c); } process m();",
    );
    let out = reclose(&["explore", path.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("no violations"));
}

#[test]
fn explore_stateful_engine_flag() {
    let path = write_temp(
        "clean2.mc",
        "chan c[1]; proc m() { while (1) { send(c, 1); int x = recv(c); } } process m();",
    );
    let out = reclose(&["explore", path.to_str().unwrap(), "--stateful"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn stateless_stats_show_the_memo_and_no_store() {
    let workers = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/workers.mc");
    let out = reclose(&["explore", workers, "--all", "--stats"]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("stats: transition memo: "), "{s}");
    // The stateless engine stores no state, so it has no store to
    // compress: the interner it keys nodes with is not a store line.
    assert!(!s.contains("compression:"), "{s}");
    assert!(!s.contains("visited store:"), "{s}");
    // `--no-compress` is the same walk with every transition
    // interpreted: the same report, and no memo to show.
    let nc = reclose(&["explore", workers, "--all", "--no-compress", "--stats"]);
    let nc_s = String::from_utf8_lossy(&nc.stdout);
    let report = |s: &str| {
        s.lines()
            .filter(|l| !l.starts_with("stats:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(report(&s), report(&nc_s));
    assert!(!nc_s.contains("transition memo:"), "{nc_s}");
}

#[test]
fn bfs_is_the_frontier_engine_at_one_worker() {
    let workers = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/workers.mc");
    for por in ["--por", "--no-por"] {
        let bfs = reclose(&["explore", workers, "--bfs", "--all", por]);
        let one = reclose(&[
            "explore",
            workers,
            "--stateful",
            "--jobs",
            "1",
            "--all",
            por,
        ]);
        assert!(bfs.status.success());
        assert_eq!(bfs.stdout, one.stdout, "{por}");
        assert_eq!(bfs.status.code(), one.status.code());
    }
    // The engine is not in the checkpoint's config digest: a run killed
    // under `--bfs` completes under `--stateful --jobs 2`.
    let dir = std::env::temp_dir().join(format!("reclose-cli-bfs-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().unwrap();
    let whole = reclose(&["explore", workers, "--bfs", "--all"]);
    let killed = reclose(&[
        "explore",
        workers,
        "--bfs",
        "--all",
        "--checkpoint-dir",
        d,
        "--checkpoint-every",
        "4",
        "--abort-after-checkpoints",
        "1",
    ]);
    assert!(String::from_utf8_lossy(&killed.stdout).contains("(truncated)"));
    let resumed = reclose(&[
        "explore",
        workers,
        "--stateful",
        "--jobs",
        "2",
        "--all",
        "--resume",
        d,
    ]);
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(whole.stdout, resumed.stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn a_deep_out_of_core_run_fits_in_64_file_handles() {
    // 301 levels, each spilling under a one-byte budget: the tier-1 log
    // keeps one handle open however many levels spill.
    let src = "chan c[1];
        proc p() {
            int i = 0;
            while (i < 100) {
                send(c, i);
                int x = recv(c);
                VS_assert(x == i);
                i = i + 1;
            }
        }
        process p();";
    let path = write_temp("deep_rounds.mc", src);
    let p = path.to_str().unwrap();
    let whole = reclose(&["explore", p, "--bfs"]);
    assert!(String::from_utf8_lossy(&whole.stdout).contains("max depth: 301"));
    let bounded = Command::new("sh")
        .args([
            "-c",
            "ulimit -n 64; exec \"$0\" explore \"$1\" --bfs --mem-limit 1",
        ])
        .args([env!("CARGO_BIN_EXE_reclose"), p])
        .output()
        .expect("sh runs");
    assert_eq!(
        bounded.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&bounded.stderr)
    );
    assert_eq!(bounded.stdout, whole.stdout);
}

#[test]
fn jobs_without_a_frontier_engine_is_a_usage_error() {
    let workers = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/workers.mc");
    let out = reclose(&["explore", workers, "--all", "--jobs", "2"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "nothing was explored");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--stateful --jobs N"), "{err}");
    for engine in ["--stateful", "--bfs"] {
        let out = reclose(&["explore", workers, engine, "--all", "--jobs", "2"]);
        assert!(
            out.status.success(),
            "{engine}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn unknown_and_valueless_flags_are_rejected() {
    let workers = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/workers.mc");
    for (args, named) in [
        (
            &["explore", workers, "--statefull", "--all"][..],
            "--statefull",
        ),
        (&["explore", workers, "--stateful", "--jobs"], "--jobs"),
        (&["explore", workers, "--depth"], "--depth"),
        (&["explore", workers, "--depth", "--all"], "--depth"),
        (&["explore", workers, "extra.mc"], "extra.mc"),
        (
            &["explore", workers, "--bfs", "--checkpoint-every", "0"][..],
            "--checkpoint-every",
        ),
        (
            &["explore", workers, "--stateful", "--jobs", "0"][..],
            "--jobs",
        ),
        (&["close", workers, "--stat"], "--stat"),
        (
            &["close", workers, "--jobs", "2"][..],
            "unknown option `--jobs`",
        ),
        (&["fuzz", "--seed", "3"], "--seed"),
        (&["fuzz", "--seeds"], "--seeds"),
        (&["switchgen", "--line", "3"], "--line"),
        (&["switchgen", "--lines", "3", "--event", "4"], "--event"),
        (&["switchgen", "--lines"], "--lines"),
        (&["check", workers, "--bogus"], "--bogus"),
        (&["check", workers, "extra.mc"], "extra.mc"),
        (&["graph", workers, "--bogus"], "--bogus"),
        (&["envgen", workers, "--bogus"], "--bogus"),
        (&["run", workers, "P0", "--bogus"], "--bogus"),
    ] {
        let out = reclose(args);
        assert!(!out.status.success(), "accepted {args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("{}: ", args[0])), "{args:?}: {err}");
        assert!(err.contains(named), "{args:?}: {err}");
    }
}

#[test]
fn graph_emits_dot() {
    let path = write_temp("open5.mc", OPEN_SRC);
    let out = reclose(&["graph", path.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("subgraph cluster_0"));
}

#[test]
fn envgen_lists_environment_processes() {
    let path = write_temp("buggy4.mc", BUGGY_SRC);
    let out = reclose(&["envgen", path.to_str().unwrap()]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("__env_feed_x"), "{s}");
}

#[test]
fn switchgen_emits_compilable_source() {
    let out = reclose(&["switchgen", "--lines", "3", "--seed-assert"]);
    assert!(out.status.success());
    let src = String::from_utf8_lossy(&out.stdout);
    let prog = cfgir::compile(&src).expect("switchgen output compiles");
    assert_eq!(prog.processes.len(), 6);
}

#[test]
fn switchgen_stub_flag() {
    let out = reclose(&["switchgen", "--lines", "1", "--stub"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("proc stub0"));
    let all: Vec<&str> = "switchgen --lines 1 --events 1 --trunks 1 --seed-deadlock --voicemail"
        .split(' ')
        .collect();
    assert!(reclose(&all).status.success(), "every documented option");
}

#[test]
fn close_refine_partitions_domain() {
    let src = r#"
        extern chan grant;
        input req : 0..100000;
        proc m() {
            int t = env_input(req);
            if (t < 50) send(grant, 1);
            else send(grant, 2);
        }
        process m();
    "#;
    let path = write_temp("refine.mc", src);
    let out = reclose(&["close", path.to_str().unwrap(), "--refine"]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("2 classes over a domain of 100001"), "{err}");
    let listing = String::from_utf8_lossy(&out.stdout);
    assert!(listing.contains("toss(1)"), "{listing}");
    // The representatives 0 and 50 survive as data.
    assert!(
        listing.contains("t = 50") || listing.contains("= 50"),
        "{listing}"
    );
}

/// Every one of histogram's 64 closed-program violations goes down a
/// toss outcome no input reaches, and enumeration decides each one.
#[test]
fn close_refine_cex_labels_histogram_violations_spurious() {
    let histogram = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/histogram.mc");
    let out = reclose(&["close", histogram, "--refine-cex", "--stats"]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(
        s.contains("64 trace(s) classified (0 real, 64 spurious, 0 unknown)"),
        "{s}"
    );
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let histogram = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/histogram.mc");
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_reclose"))
        .args(["explore", histogram, "--close", "--stateful", "--all"])
        .stdout(writer)
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert!(out.status.success(), "{:?}: {err}", out.status);
}

#[test]
fn explore_coverage_flag() {
    let path = write_temp(
        "cov.mc",
        "chan c[1]; proc m() { send(c, 1); int x = recv(c); } process m();",
    );
    let out = reclose(&["explore", path.to_str().unwrap(), "--coverage"]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("coverage:"), "{s}");
    assert!(s.contains("m: "), "{s}");
}

#[test]
fn run_replays_a_schedule() {
    let path = write_temp(
        "sched.mc",
        "chan c[1]; proc m() { int v = VS_toss(1); send(c, v); int w = recv(c); } process m();",
    );
    let out = reclose(&["run", path.to_str().unwrap(), "P0[1]", "P0", "P0"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("send(c, 1)"), "{s}");
    assert!(s.contains("recv(c) = 1"), "{s}");
    assert!(s.contains("end:"), "{s}");
}

#[test]
fn run_rejects_malformed_schedules() {
    let path = write_temp(
        "sched2.mc",
        "chan c[1]; proc m() { send(c, 1); } process m();",
    );
    for bad in ["Q0", "P0[", "P0[x]", "Pzero"] {
        let out = reclose(&["run", path.to_str().unwrap(), bad]);
        assert!(!out.status.success(), "accepted {bad}");
    }
}

/// An open program whose `m` nests `ifs` conditionals around a send of
/// a left-associative chain of `terms` additions.
fn nested(ifs: usize, terms: usize) -> String {
    format!(
        "extern chan out; input v : 0..1;\nproc m(int x) {{ {} send(out, {}); }}\nprocess m(v);\n",
        "if (x == 0) ".repeat(ifs),
        vec!["1"; terms].join(" + "),
    )
}

#[test]
fn hostile_nesting_is_a_diagnostic() {
    let parens = format!(
        "chan c[1]; proc m() {{ send(c, {}1{}); }} process m();",
        "(".repeat(100_000),
        ")".repeat(100_000)
    );
    let limit = format!("nested deeper than {} levels", minic::parser::MAX_NESTING);
    for (name, src) in [("ifs.mc", nested(5_000, 1)), ("parens.mc", parens)] {
        let path = write_temp(name, &src);
        for cmd in ["check", "close"] {
            let out = reclose(&[cmd, path.to_str().unwrap()]);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {name}: {err}");
            assert!(err.contains(&limit), "{cmd} {name}: {err}");
            assert!(!err.contains("overflowed"), "{cmd} {name}: {err}");
        }
    }
}

#[test]
fn a_program_nested_at_the_limit_closes_and_explores() {
    let limit = minic::parser::MAX_NESTING;
    // The deepest node is the chain's first term: below the `ifs`
    // conditionals, the send statement, its call and the chain's
    // `terms - 1` operators.
    let at_limit = [nested(limit - 3, 1), nested(0, limit - 2)];
    for (ifs, terms) in [(limit - 3, 1), (0, limit - 2)] {
        assert!(cfgir::compile(&nested(ifs, terms + 1)).is_err());
    }
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            for src in at_limit {
                let closed = closer::close_source(&src).expect("closes at the limit");
                let r = verisoft::explore(&closed.program, &verisoft::Config::default());
                assert!(r.clean() && !r.truncated, "{r}");
            }
        })
        .unwrap()
        .join()
        .expect("a 2 MiB thread holds the deepest program");
}
