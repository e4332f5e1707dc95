//! Integration tests for the `reclose` CLI binary.

mod common;

use common::TempDir;
use std::process::Command;

fn reclose(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_reclose"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Write `contents` to `name` in a scratch directory of this process's
/// own, removed when the returned guard drops: hold the guard as long as
/// the file is used.
fn write_temp(name: &str, contents: &str) -> (TempDir, std::path::PathBuf) {
    let dir = TempDir::new(&format!("reclose-cli-{name}"));
    std::fs::create_dir_all(&*dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    (dir, path)
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
    let (_dir, path) = write_temp("open.mc", OPEN_SRC);
    let out = reclose(&["check", path.to_str().unwrap()]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("open system"), "{s}");
}

#[test]
fn check_rejects_invalid_source() {
    let (_dir, path) = write_temp("bad.mc", "proc m() { y = 1; } process m();");
    let out = reclose(&["check", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown variable"));
}

#[test]
fn close_prints_listing_with_toss() {
    let (_dir, path) = write_temp("open2.mc", OPEN_SRC);
    let out = reclose(&["close", path.to_str().unwrap()]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("toss(1)"), "{s}");
}

#[test]
fn close_stats_row_per_proc() {
    let (_dir, path) = write_temp("open3.mc", OPEN_SRC);
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
    let (_dir, path) = write_temp("open4.mc", OPEN_SRC);
    let out = reclose(&["close", path.to_str().unwrap(), "--dot"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("digraph"));
}

#[test]
fn explore_open_program_requires_mode() {
    let (_dir, path) = write_temp("buggy.mc", BUGGY_SRC);
    let out = reclose(&["explore", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--enumerate"));
}

#[test]
fn explore_close_finds_violation_and_explains() {
    let (_dir, path) = write_temp("buggy2.mc", BUGGY_SRC);
    let out = reclose(&["explore", path.to_str().unwrap(), "--close", "--explain"]);
    assert!(!out.status.success(), "violation sets exit code");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("assertion violation"), "{s}");
    assert!(s.contains("VS_assert VIOLATED"), "{s}");
    assert!(s.contains("send(c, 2)"), "explanation names objects: {s}");
}

#[test]
fn explore_enumerate_matches_closed_verdict() {
    let (_dir, path) = write_temp("buggy3.mc", BUGGY_SRC);
    let a = reclose(&["explore", path.to_str().unwrap(), "--enumerate"]);
    let b = reclose(&["explore", path.to_str().unwrap(), "--close"]);
    assert!(!a.status.success());
    assert!(!b.status.success());
}

#[test]
fn explore_clean_program_succeeds() {
    let (_dir, path) = write_temp(
        "clean.mc",
        "chan c[1]; proc m() { send(c, 1); int x = recv(c); } process m();",
    );
    let out = reclose(&["explore", path.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("no violations"));
}

#[test]
fn explore_stateful_engine_flag() {
    let (_dir, path) = write_temp(
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
    let dir = TempDir::new("reclose-cli-bfs-ckpt");
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
    let (_dir, path) = write_temp("deep_rounds.mc", src);
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
    let (_dir, path) = write_temp("open5.mc", OPEN_SRC);
    let out = reclose(&["graph", path.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("subgraph cluster_0"));
}

#[test]
fn envgen_lists_environment_processes() {
    let (_dir, path) = write_temp("buggy4.mc", BUGGY_SRC);
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
    let (_dir, path) = write_temp("refine.mc", src);
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
    let (_dir, path) = write_temp(
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
    let (_dir, path) = write_temp(
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
    let (_dir, path) = write_temp(
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
        let (_dir, path) = write_temp(name, &src);
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

#[test]
fn a_damaged_checkpoint_is_a_diagnostic_naming_the_file() {
    // `--resume` reads each file once and checks it as it loads: a
    // missing, short, foreign or torn file, or an interner table naming
    // one component twice, ends the run with an error naming it (exit
    // 1), not a panic. A refused resume truncates no file below what
    // the manifest commits: with the good file put back, the directory
    // resumes as an undamaged copy does.
    let workers = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/workers.mc");
    let base = TempDir::new("reclose-cli-damaged");
    let good = base.join("good");
    // Killed at level 6 with states in both tiers.
    let killed = reclose(&[
        "explore",
        workers,
        "--bfs",
        "--all",
        "--mem-limit",
        "100",
        "--checkpoint-dir",
        good.to_str().unwrap(),
        "--checkpoint-every",
        "6",
        "--abort-after-checkpoints",
        "1",
    ]);
    assert!(killed.status.success());
    let files: Vec<std::path::PathBuf> = std::fs::read_dir(&good)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    let side = |prefix: &str| {
        let names = files
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy());
        let mut names = names.filter(|n| n.starts_with(prefix));
        names.next().expect("a level's snapshot").into_owned()
    };
    let (mem, frontier) = (side("mem-"), side("frontier-"));
    let copy_of_good = |name: &str| {
        let dir = base.join(name);
        std::fs::create_dir_all(&dir).unwrap();
        for f in &files {
            std::fs::copy(f, dir.join(f.file_name().unwrap())).unwrap();
        }
        dir
    };
    let resume = |dir: &std::path::Path| {
        reclose(&[
            "explore",
            workers,
            "--bfs",
            "--all",
            "--resume",
            dir.to_str().unwrap(),
        ])
    };
    let undamaged = resume(&copy_of_good("undamaged"));
    assert!(undamaged.status.success());
    type Damage = fn(&std::path::Path);
    let damages: [(&str, Damage, &str); 7] = [
        (
            "intern.bin",
            |p| std::fs::remove_file(p).unwrap(),
            "No such file",
        ),
        (
            "trace.bin",
            |p| {
                let f = std::fs::OpenOptions::new().write(true).open(p).unwrap();
                f.set_len(10).unwrap();
            },
            "10 bytes on disk, manifest says",
        ),
        (
            &mem,
            |p| {
                let mut bytes = std::fs::read(p).unwrap();
                bytes[..4].copy_from_slice(b"XXXX");
                std::fs::write(p, bytes).unwrap();
            },
            "incompatible store format version",
        ),
        (&mem, cut_the_last_byte, "torn record"),
        (
            "tier1.bin",
            |p| {
                let mut bytes = std::fs::read(p).unwrap();
                bytes[5..].fill(0xFF);
                std::fs::write(p, bytes).unwrap();
            },
            "torn record",
        ),
        ("intern.bin", repeat_an_intern_record, "repeated component"),
        (&frontier, cut_the_last_byte, "torn"),
    ];
    for (i, (name, damage, why)) in damages.into_iter().enumerate() {
        let dir = copy_of_good(&format!("{i}-{name}"));
        let path = dir.join(name);
        damage(&path);
        let out = resume(&dir);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {err}");
        let want = format!("error: {}: ", path.display());
        assert!(err.starts_with(&want), "{name}: {err}");
        assert!(err.contains(why), "{name}: {err}");
        assert!(out.stdout.is_empty(), "{name}: nothing explored");
        std::fs::copy(good.join(name), &path).unwrap();
        let again = resume(&dir);
        assert!(again.status.success(), "{name}: put back");
        assert_eq!(again.stdout, undamaged.stdout, "{name}: put back");
    }
}

/// Cut the last byte of the file at `p`, which holds a record.
fn cut_the_last_byte(p: &std::path::Path) {
    let f = std::fs::OpenOptions::new().write(true).open(p).unwrap();
    let len = f.metadata().unwrap().len();
    assert!(len > 5, "the file holds a record");
    f.set_len(len - 1).unwrap();
}

/// Overwrite a record of the interner table at `p` with an earlier one
/// of the same length: every record still reads, and one component is
/// named twice.
fn repeat_an_intern_record(p: &std::path::Path) {
    let mut bytes = std::fs::read(p).unwrap();
    let mut spans: Vec<std::ops::Range<usize>> = Vec::new();
    let mut at = 5; // past the header
    while at < bytes.len() {
        let len = bytes[at] as usize;
        assert!(len < 0x80, "a one-byte length prefix");
        spans.push(at + 1..at + 1 + len);
        at += 1 + len;
    }
    let (earlier, later) = (0..spans.len())
        .flat_map(|j| (0..j).map(move |i| (i, j)))
        .find(|&(i, j)| spans[i].len() == spans[j].len())
        .expect("two components of one length");
    let copy = bytes[spans[earlier].clone()].to_vec();
    bytes[spans[later].clone()].copy_from_slice(&copy);
    std::fs::write(p, bytes).unwrap();
}

#[cfg(unix)]
#[test]
fn a_directory_the_engine_cannot_use_is_a_diagnostic_naming_it() {
    // A checkpoint directory that names a regular file, and a spill
    // directory under a `TMPDIR` that is one, end the run with an error
    // naming the path (exit 1), not a panic. `--resume` of a directory
    // that is not there is refused at its manifest and creates nothing.
    let workers = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/workers.mc");
    let base = TempDir::new("reclose-cli-unusable");
    std::fs::create_dir_all(&*base).unwrap();
    let file = base.join("a-file");
    std::fs::write(&file, "not a directory").unwrap();
    let missing = base.join("missing");
    let (f, m) = (file.to_str().unwrap(), missing.to_str().unwrap());
    let rows: [(&[&str], Option<&str>, std::path::PathBuf); 3] = [
        (&["--checkpoint-dir", f], None, file.clone()),
        (&["--mem-limit", "10"], Some(f), file.clone()),
        (&["--resume", m], None, missing.join("checkpoint.bin")),
    ];
    for (flags, tmpdir, named) in rows {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_reclose"));
        cmd.args(["explore", workers, "--bfs", "--all"]).args(flags);
        if let Some(t) = tmpdir {
            cmd.env("TMPDIR", t);
        }
        let out = cmd.output().expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {err}");
        let want = format!("error: {}", named.display());
        assert!(err.starts_with(&want), "{flags:?}: {err}");
        assert!(out.stdout.is_empty(), "{flags:?}: nothing explored");
    }
    assert!(!missing.exists(), "--resume created nothing");
}
