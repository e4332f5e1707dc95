//! Classic concurrency scenarios as explorer validation: dining
//! philosophers, token ring, barrier, readers–writers. Each has a correct
//! variant (verified clean) and, where it matters, a broken variant whose
//! defect the search must find.

use cfgir::compile;
use verisoft::{explore, Config, Engine, ViolationKind};

fn run(src: &str, cfg: &Config) -> verisoft::Report {
    explore(&compile(src).unwrap(), cfg)
}

fn exhaustive() -> Config {
    Config {
        max_violations: usize::MAX,
        max_depth: 500,
        max_transitions: 2_000_000,
        ..Config::default()
    }
}

// ---------------------------------------------------------------------
// Dining philosophers (3 seats)
// ---------------------------------------------------------------------

fn philosophers(fixed: bool) -> String {
    let mut s = String::new();
    for i in 0..3 {
        s.push_str(&format!("sem fork{i} = 1;\n"));
    }
    for i in 0..3 {
        let left = i;
        let right = (i + 1) % 3;
        // The classic fix: the last philosopher picks up in the opposite
        // order, breaking the circular wait.
        let (first, second) = if fixed && i == 2 {
            (right, left)
        } else {
            (left, right)
        };
        s.push_str(&format!(
            "proc phil{i}() {{\n\
             \tsem_wait(fork{first});\n\
             \tsem_wait(fork{second});\n\
             \t// eat\n\
             \tsem_signal(fork{second});\n\
             \tsem_signal(fork{first});\n\
             }}\n"
        ));
    }
    for i in 0..3 {
        s.push_str(&format!("process phil{i}();\n"));
    }
    s
}

#[test]
fn dining_philosophers_deadlock_found() {
    let r = run(&philosophers(false), &Config::default());
    assert!(r.first_deadlock().is_some(), "{r}");
}

#[test]
fn dining_philosophers_asymmetric_fix_verified() {
    let r = run(&philosophers(true), &exhaustive());
    assert!(r.clean(), "{r}");
    assert!(!r.truncated);
}

#[test]
fn philosophers_deadlock_found_by_every_engine() {
    for engine in [
        Engine::Stateless,
        Engine::Stateful,
        Engine::StatefulParallel,
    ] {
        let r = run(
            &philosophers(false),
            &Config {
                engine,
                ..Config::default()
            },
        );
        assert!(r.first_deadlock().is_some(), "{engine:?}");
    }
}

// ---------------------------------------------------------------------
// Token ring (3 stations, 2 laps)
// ---------------------------------------------------------------------

#[test]
fn token_ring_delivers_in_order() {
    let src = r#"
        chan r01[1]; chan r12[1]; chan r20[1];
        proc s0() {
            send(r01, 1);
            int t = recv(r20);
            VS_assert(t == 1);
            send(r01, 2);
            t = recv(r20);
            VS_assert(t == 2);
        }
        proc s1() { int a = recv(r01); send(r12, a); int b = recv(r01); send(r12, b); }
        proc s2() { int a = recv(r12); send(r20, a); int b = recv(r12); send(r20, b); }
        process s0();
        process s1();
        process s2();
    "#;
    let r = run(src, &exhaustive());
    assert!(r.clean(), "{r}");
}

// ---------------------------------------------------------------------
// Barrier via semaphores (2 workers + coordinator)
// ---------------------------------------------------------------------

#[test]
fn semaphore_barrier_orders_phases() {
    let src = r#"
        sem arrived = 0;
        sem release = 0;
        shared phase = 0;
        proc w1() {
            sem_signal(arrived);
            sem_wait(release);
            int p = sh_read(phase);
            VS_assert(p == 1);
        }
        proc w2() {
            sem_signal(arrived);
            sem_wait(release);
            int p = sh_read(phase);
            VS_assert(p == 1);
        }
        proc coord() {
            sem_wait(arrived);
            sem_wait(arrived);
            sh_write(phase, 1);
            sem_signal(release);
            sem_signal(release);
        }
        process w1();
        process w2();
        process coord();
    "#;
    let r = run(src, &exhaustive());
    assert!(r.clean(), "{r}");
}

#[test]
fn broken_barrier_releases_early() {
    // The coordinator waits for only ONE arrival: a worker can pass the
    // barrier before the phase flips.
    let src = r#"
        sem arrived = 0;
        sem release = 0;
        shared phase = 0;
        proc w1() {
            sem_signal(arrived);
            sem_wait(release);
            int p = sh_read(phase);
            VS_assert(p == 1);
        }
        proc w2() {
            sem_signal(arrived);
            sem_wait(release);
            int p = sh_read(phase);
            VS_assert(p == 1);
        }
        proc coord() {
            sem_wait(arrived);
            sem_signal(release);
            sem_signal(release);
            sem_wait(arrived);
            sh_write(phase, 1);
        }
        process w1();
        process w2();
        process coord();
    "#;
    let r = run(src, &Config::default());
    assert!(r.first_assert().is_some(), "{r}");
}

// ---------------------------------------------------------------------
// Readers–writers via a writer lock + reader count
// ---------------------------------------------------------------------

#[test]
fn readers_writers_mutual_exclusion() {
    let src = r#"
        sem mutex = 1;       // protects readers count
        sem roomempty = 1;   // writers hold this
        shared readers = 0;
        shared data = 0;
        proc writer() {
            sem_wait(roomempty);
            sh_write(data, 1);
            sh_write(data, 2);
            int d = sh_read(data);
            VS_assert(d == 2);
            sem_signal(roomempty);
        }
        proc reader() {
            sem_wait(mutex);
            int rc = sh_read(readers);
            if (rc == 0) { sem_wait(roomempty); }
            sh_write(readers, rc + 1);
            sem_signal(mutex);

            int d = sh_read(data);
            VS_assert(d == 0 || d == 2);

            sem_wait(mutex);
            rc = sh_read(readers);
            sh_write(readers, rc - 1);
            if (rc - 1 == 0) { sem_signal(roomempty); }
            sem_signal(mutex);
        }
        process writer();
        process reader();
        process reader();
    "#;
    let r = run(src, &exhaustive());
    assert!(r.clean(), "{r}");
}

#[test]
fn readers_writers_without_lock_is_racy() {
    // Remove the writer lock: a reader can observe the half-done write.
    let src = r#"
        shared data = 0;
        chan done[2];
        proc writer() {
            sh_write(data, 1);
            sh_write(data, 2);
            send(done, 1);
        }
        proc reader() {
            int d = sh_read(data);
            VS_assert(d == 0 || d == 2);
            send(done, 1);
        }
        process writer();
        process reader();
    "#;
    let r = run(src, &Config::default());
    assert_eq!(
        r.count(|k| *k == ViolationKind::AssertionViolation),
        1,
        "{r}"
    );
}

// ---------------------------------------------------------------------
// POR effectiveness on the scenarios
// ---------------------------------------------------------------------

#[test]
fn por_reduces_philosophers_exploration() {
    let src = philosophers(true);
    let with = run(&src, &exhaustive());
    let without = run(
        &src,
        &Config {
            por: false,
            sleep_sets: false,
            ..exhaustive()
        },
    );
    assert!(with.clean() && without.clean());
    assert!(
        with.states <= without.states,
        "{} vs {}",
        with.states,
        without.states
    );
}
