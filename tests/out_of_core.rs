//! Out-of-core frontier search: spilling under a memory budget and
//! kill/resume through checkpoints must both leave the report
//! byte-identical to an unbounded, uninterrupted run — for any worker
//! count and any memory limit.

mod common;

use common::TempDir;
use reclose::prelude::*;

fn workers_src() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/workers.mc"))
        .expect("corpus/workers.mc")
}

fn frontier_config(jobs: usize) -> Config {
    Config {
        engine: Engine::StatefulParallel,
        jobs,
        ..Config::default()
    }
}

/// The deterministic surface of a report: everything except the
/// operational IO counters (peak bytes, spill/checkpoint
/// counts), which legitimately vary with the memory limit and with
/// where a run was interrupted.
fn surface(r: &Report) -> (String, usize, usize, usize, usize, usize, usize) {
    (
        r.to_string(),
        r.visited_bytes,
        r.visited_states,
        r.shared_components,
        r.total_components,
        r.por_skipped_procs,
        r.por_proviso_fallbacks,
    )
}

fn temp_dir(name: &str) -> TempDir {
    TempDir::new(&format!("reclose-ooc-{name}"))
}

#[test]
fn spilling_never_changes_the_report() {
    let prog = compile(&workers_src()).unwrap();
    let baseline = explore(&prog, &frontier_config(1));
    assert!(baseline.clean(), "workers.mc is violation-free");
    assert!(baseline.states > 20, "the run is big enough to spill");
    for jobs in [1, 2, 8] {
        for mem_limit in [usize::MAX, 1 << 10, 256, 32] {
            let config = Config {
                mem_limit,
                ..frontier_config(jobs)
            };
            let report = explore(&prog, &config);
            assert_eq!(
                surface(&report),
                surface(&baseline),
                "jobs={jobs} mem_limit={mem_limit}"
            );
            if mem_limit == 32 {
                assert!(report.store_spilled_entries > 0, "tiny budget spills");
                assert!(report.frontier_spilled_entries > 0, "and spools");
            }
            if mem_limit == usize::MAX {
                assert_eq!(report.store_segments, 0, "unbounded never hits disk");
            }
        }
    }
}

#[test]
fn killed_and_resumed_runs_complete_byte_identically() {
    let prog = compile(&workers_src()).unwrap();
    let baseline = explore(&prog, &frontier_config(1));
    for (kill_jobs, resume_jobs) in [(1, 1), (2, 8), (8, 1)] {
        for (kill_mem, resume_mem) in [
            (usize::MAX, usize::MAX),
            (300, usize::MAX),
            (usize::MAX, 300),
        ] {
            let dir = temp_dir(&format!(
                "kr-{kill_jobs}-{resume_jobs}-{kill_mem}-{resume_mem}"
            ));
            let killed = explore(
                &prog,
                &Config {
                    mem_limit: kill_mem,
                    checkpoint_dir: Some(dir.to_path_buf()),
                    checkpoint_every: 1,
                    abort_after_checkpoints: Some(2),
                    ..frontier_config(kill_jobs)
                },
            );
            assert!(killed.truncated, "the abort hook interrupts the run");
            assert!(
                killed.states < baseline.states,
                "the kill happened mid-search"
            );
            assert_eq!(killed.checkpoints_written, 2);
            // Resume — possibly under a different worker count and a
            // different memory budget: neither is part of the
            // checkpoint's config digest because neither influences
            // the report.
            let resumed = explore(
                &prog,
                &Config {
                    mem_limit: resume_mem,
                    checkpoint_dir: Some(dir.to_path_buf()),
                    resume: true,
                    ..frontier_config(resume_jobs)
                },
            );
            assert_eq!(
                surface(&resumed),
                surface(&baseline),
                "kill(jobs={kill_jobs},mem={kill_mem}) → resume(jobs={resume_jobs},mem={resume_mem})"
            );
            // The transition memo is not part of a checkpoint: the
            // resumed run starts with none and fills its own.
            assert!(killed.memo.misses > 0 && resumed.memo.misses > 0);
        }
    }
}

/// `tests/batch_oracle.rs`'s racy model: two processes cycling values
/// through one shared channel, so some interleavings trip `a`'s
/// assertion, at depths up to 20.
const RACY_SRC: &str = r#"
    chan q[2];
    proc a() {
        int i = 0;
        while (i < 4) {
            send(q, i);
            int x = recv(q);
            VS_assert(x < 4);
            i = i + 1;
        }
    }
    proc b() {
        int j = 0;
        while (j < 3) {
            send(q, 7);
            int y = recv(q);
            j = j + 1;
        }
    }
    process a();
    process b();
"#;

#[test]
fn killed_and_resumed_runs_keep_every_violation_trace() {
    // A violation found after a resume has a reproducing path that runs
    // through records the killed run appended to `trace.bin`: resume must
    // reopen that log at its committed length, even behind a torn tail,
    // for every worker count and memory budget.
    let histogram =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/histogram.mc"))
            .expect("corpus/histogram.mc");
    let models = [
        (
            "histogram",
            close_source(&histogram).expect("closes").program,
        ),
        ("racy", compile(RACY_SRC).unwrap()),
    ];
    for (name, prog) in &models {
        let all = Config {
            max_violations: usize::MAX,
            ..frontier_config(1)
        };
        let baseline = explore(prog, &all);
        assert!(
            !baseline.clean() && !baseline.truncated,
            "{name}: {baseline}"
        );
        for kills in 1..=3 {
            // Each resume crosses the killed run's worker count and
            // budget; half of them find a torn tail past the log's
            // committed length.
            for (resume_jobs, resume_mem, torn) in [
                (1, 16, false),
                (2, usize::MAX, false),
                (1, usize::MAX, true),
                (2, 16, true),
            ] {
                let dir = temp_dir(&format!("traces-{name}-{kills}-{resume_jobs}-{resume_mem}"));
                let killed = explore(
                    prog,
                    &Config {
                        mem_limit: if resume_mem == 16 { usize::MAX } else { 16 },
                        checkpoint_dir: Some(dir.to_path_buf()),
                        checkpoint_every: 1,
                        abort_after_checkpoints: Some(kills),
                        jobs: 3 - resume_jobs,
                        ..all.clone()
                    },
                );
                assert!(
                    killed.truncated,
                    "{name}: the abort hook interrupts the run"
                );
                assert!(
                    killed.violations.len() < baseline.violations.len(),
                    "{name}: violations are left for the resumed run to report"
                );
                if torn {
                    use std::io::Write;
                    std::fs::OpenOptions::new()
                        .append(true)
                        .open(dir.join("trace.bin"))
                        .expect("the killed run wrote a trace log")
                        .write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x7F])
                        .unwrap();
                }
                let resumed = explore(
                    prog,
                    &Config {
                        mem_limit: resume_mem,
                        checkpoint_dir: Some(dir.to_path_buf()),
                        resume: true,
                        jobs: resume_jobs,
                        ..all.clone()
                    },
                );
                assert_eq!(
                    surface(&resumed),
                    surface(&baseline),
                    "{name}: kill after {kills} → resume(jobs={resume_jobs},mem={resume_mem}, torn={torn})"
                );
            }
        }
    }
}

#[test]
fn resume_survives_repeated_kills() {
    // Kill after every single checkpoint until the run finally
    // completes — the worst-case crash pattern.
    let prog = compile(&workers_src()).unwrap();
    let baseline = explore(&prog, &frontier_config(1));
    let dir = temp_dir("repeated");
    let mut config = Config {
        mem_limit: 300,
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_every: 1,
        abort_after_checkpoints: Some(1),
        ..frontier_config(2)
    };
    let mut report = explore(&prog, &config);
    let mut kills = 0;
    config.resume = true;
    while report.truncated {
        kills += 1;
        assert!(kills < 100, "resume must make progress");
        report = explore(&prog, &config);
    }
    assert!(kills > 2, "several kill/resume cycles actually happened");
    assert_eq!(surface(&report), surface(&baseline));
}

#[test]
fn interner_table_survives_a_torn_tail() {
    // A crash can tear the append-only interner table mid-record: the
    // manifest records the committed (entries, bytes) prefix, so any
    // trailing garbage past that point must be truncated on load and
    // the resumed run must stay byte-identical.
    let prog = compile(&workers_src()).unwrap();
    let baseline = explore(&prog, &frontier_config(1));
    let dir = temp_dir("torn-intern");
    let killed = explore(
        &prog,
        &Config {
            mem_limit: 300,
            checkpoint_dir: Some(dir.to_path_buf()),
            checkpoint_every: 1,
            abort_after_checkpoints: Some(2),
            ..frontier_config(2)
        },
    );
    assert!(killed.truncated);
    assert!(killed.interner_entries > 0, "compression is on by default");
    let intern = dir.join("intern.bin");
    let committed = std::fs::metadata(&intern)
        .expect("interner table persisted")
        .len();
    assert!(committed > 0);
    // Simulate a crash mid-append: garbage past the committed prefix.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&intern)
        .unwrap();
    f.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x7F]).unwrap();
    drop(f);
    assert!(std::fs::metadata(&intern).unwrap().len() > committed);

    let resumed = explore(
        &prog,
        &Config {
            checkpoint_dir: Some(dir.to_path_buf()),
            resume: true,
            ..frontier_config(1)
        },
    );
    assert_eq!(surface(&resumed), surface(&baseline));
}

#[test]
fn resume_rejects_a_different_compression_mode() {
    // Compression changes the on-disk encoding of every snapshot, so
    // it is part of the config digest: a checkpoint written with the
    // interner cannot be resumed with `--no-compress`, and vice versa.
    let prog = compile(&workers_src()).unwrap();
    for killed_no_compress in [false, true] {
        let dir = temp_dir(&format!("mode-{killed_no_compress}"));
        let config = Config {
            no_compress: killed_no_compress,
            checkpoint_dir: Some(dir.to_path_buf()),
            checkpoint_every: 1,
            abort_after_checkpoints: Some(1),
            ..frontier_config(1)
        };
        let killed = explore(&prog, &config);
        assert!(killed.truncated);

        let flipped = Config {
            no_compress: !killed_no_compress,
            resume: true,
            ..config.clone()
        };
        let err = try_explore(&prog, &flipped).unwrap_err().to_string();
        assert!(err.contains("different exploration configuration"), "{err}");

        // The matching mode still resumes and completes.
        let resumed = explore(
            &prog,
            &Config {
                resume: true,
                abort_after_checkpoints: None,
                ..config
            },
        );
        assert!(!resumed.truncated);
    }
}

/// One process, 100 `send`/`recv` rounds: a 301-level search in which a
/// one-byte budget spills at every level.
const DEEP_SRC: &str = "chan c[1];
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

#[test]
fn every_spill_appends_to_one_log_file() {
    // Tier 1 is one append-only log however many levels spill, so a
    // deep run holds one tier-1 file (and one handle) even when no
    // checkpoint ever falls due; beside it sits the one path log.
    let prog = compile(DEEP_SRC).unwrap();
    let baseline = explore(&prog, &frontier_config(1));
    assert_eq!(baseline.max_depth_seen, 301);
    let dir = temp_dir("deep");
    let report = explore(
        &prog,
        &Config {
            mem_limit: 1,
            checkpoint_dir: Some(dir.to_path_buf()),
            checkpoint_every: 1000,
            ..frontier_config(1)
        },
    );
    assert_eq!(surface(&report), surface(&baseline));
    assert_eq!(report.checkpoints_written, 0);
    assert!(report.store_segments > 250, "nearly every level spilled");
    let mut names: Vec<String> = dir
        .read_dir()
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names, ["tier1.bin", "trace.bin"]);
}

#[test]
fn resume_truncates_a_post_manifest_spill_and_a_torn_log_tail() {
    // A crash after the manifest commits can leave the log longer than
    // the committed length: a whole spill that landed after the rename,
    // then a torn append. Resume truncates both away, and the report is
    // byte-identical under a different worker count.
    let prog = compile(&workers_src()).unwrap();
    let baseline = explore(&prog, &frontier_config(1));
    let dir = temp_dir("log-tail");
    let config = Config {
        mem_limit: 16,
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_every: 1,
        abort_after_checkpoints: Some(3),
        ..frontier_config(1)
    };
    let killed = explore(&prog, &config);
    assert!(killed.truncated);
    let log = dir.join("tier1.bin");
    let committed = std::fs::metadata(&log)
        .expect("the tiny budget spilled")
        .len();
    let manifest: Vec<(std::path::PathBuf, Vec<u8>)> = dir
        .read_dir()
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| !p.ends_with("tier1.bin") && !p.ends_with("intern.bin"))
        .map(|p| {
            let bytes = std::fs::read(&p).unwrap();
            (p, bytes)
        })
        .collect();
    // Run one more level, so a real spill appends to the log, then put
    // checkpoint 3's manifest and side files back: the crash landed
    // after that spill and before the next rename.
    let further = explore(
        &prog,
        &Config {
            resume: true,
            abort_after_checkpoints: Some(4),
            ..config.clone()
        },
    );
    assert!(further.truncated && further.store_segments > 0);
    for (p, bytes) in &manifest {
        std::fs::write(p, bytes).unwrap();
    }
    use std::io::Write;
    std::fs::OpenOptions::new()
        .append(true)
        .open(&log)
        .unwrap()
        .write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x7F])
        .unwrap();
    assert!(std::fs::metadata(&log).unwrap().len() > committed + 5);

    let resumed = explore(
        &prog,
        &Config {
            mem_limit: 16,
            checkpoint_dir: Some(dir.to_path_buf()),
            resume: true,
            ..frontier_config(2)
        },
    );
    assert_eq!(surface(&resumed), surface(&baseline));
}

#[test]
fn resume_rejects_a_different_program_or_config() {
    let prog = compile(&workers_src()).unwrap();
    let dir = temp_dir("reject");
    let config = Config {
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_every: 1,
        abort_after_checkpoints: Some(1),
        ..frontier_config(1)
    };
    let killed = explore(&prog, &config);
    assert!(killed.truncated);

    let resume = Config {
        resume: true,
        ..config
    };
    let other = compile("chan c[1]; proc p() { send(c, 1); } process p();").unwrap();
    let err = try_explore(&other, &resume).unwrap_err().to_string();
    assert!(err.contains("different program"), "{err}");

    let narrower = Config {
        max_depth: 7,
        ..resume.clone()
    };
    let err = try_explore(&prog, &narrower).unwrap_err().to_string();
    assert!(err.contains("different exploration configuration"), "{err}");

    // The knobs that are *excluded* from the digest resume fine.
    let retuned = Config {
        jobs: 64,
        mem_limit: 128,
        checkpoint_every: 9,
        ..resume
    };
    try_explore(&prog, &retuned).unwrap();
}

#[test]
fn checkpoint_files_keep_their_bytes() {
    // One spilling run at one worker, killed after its sixth checkpoint
    // with states in both tiers, pinned file by file. The digests were
    // taken from the lock-striped store this one replaced, so a store
    // that spills, snapshots or sorts its records differently fails
    // here; comparing two runs of one binary cannot see that.
    let histogram =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/histogram.mc"))
            .expect("corpus/histogram.mc");
    let prog = close_source(&histogram).expect("closes").program;
    let dir = temp_dir("pinned");
    let killed = explore(
        &prog,
        &Config {
            max_violations: usize::MAX,
            mem_limit: 3000,
            checkpoint_dir: Some(dir.to_path_buf()),
            checkpoint_every: 1,
            abort_after_checkpoints: Some(6),
            ..frontier_config(1)
        },
    );
    assert!(killed.truncated && killed.store_spilled_entries > 0);
    let mut digests: Vec<(String, u64)> = dir
        .read_dir()
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let bytes = std::fs::read(e.path()).unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, verisoft::stable_hash_bytes(&bytes))
        })
        .collect();
    digests.sort();
    let pinned = [
        ("checkpoint.bin", 0x4b9c752afc73b2d0),
        ("frontier-6.bin", 0xe18896222d3c30e8),
        ("intern.bin", 0xa9607cd25dea91a9),
        ("mem-6.bin", 0x7bedf25cd18c7fa3),
        ("tier1.bin", 0xb801f98c30fc69e5),
        ("trace.bin", 0xbf1dc5386f21b054),
    ]
    .map(|(name, digest)| (name.to_string(), digest));
    assert_eq!(digests, pinned);
}
