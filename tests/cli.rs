//! Smoke tests for the `fairhms` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> PathBuf {
    // target/debug/fairhms next to the test executable's directory
    let mut p = std::env::current_exe().unwrap();
    p.pop(); // deps/
    p.pop(); // debug/ (or release/)
    p.push(format!("fairhms{}", std::env::consts::EXE_SUFFIX));
    p
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("fairhms_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn gen_stats_solve_pipeline() {
    let csv = tmp("cli_data.csv");
    let gen = Command::new(bin())
        .args([
            "gen",
            "--out",
            csv.to_str().unwrap(),
            "--n",
            "300",
            "--d",
            "2",
            "--c",
            "3",
            "--seed",
            "5",
        ])
        .output()
        .expect("run gen");
    assert!(
        gen.status.success(),
        "gen: {}",
        String::from_utf8_lossy(&gen.stderr)
    );
    assert!(csv.exists());

    let stats = Command::new(bin())
        .args(["stats", "--input", csv.to_str().unwrap(), "--dim", "2"])
        .output()
        .expect("run stats");
    assert!(stats.status.success());
    let out = String::from_utf8_lossy(&stats.stdout);
    assert!(out.contains("n=300"), "stats output: {out}");
    assert!(out.contains("group"), "stats output: {out}");

    for alg in [
        "intcov",
        "bigreedy",
        "bigreedy+",
        "f-greedy",
        "g-greedy",
        "streaming",
    ] {
        let solve = Command::new(bin())
            .args([
                "solve",
                "--input",
                csv.to_str().unwrap(),
                "--dim",
                "2",
                "--k",
                "5",
                "--alg",
                alg,
            ])
            .output()
            .expect("run solve");
        assert!(
            solve.status.success(),
            "solve --alg {alg}: {}",
            String::from_utf8_lossy(&solve.stderr)
        );
        let out = String::from_utf8_lossy(&solve.stdout);
        assert!(out.contains("err(S)    : 0"), "--alg {alg}: {out}");
        assert!(out.contains("mhr"), "--alg {alg}: {out}");
    }
}

#[test]
fn solve_balanced_and_no_skyline_flags() {
    let csv = tmp("cli_flags.csv");
    Command::new(bin())
        .args([
            "gen",
            "--out",
            csv.to_str().unwrap(),
            "--n",
            "200",
            "--d",
            "3",
            "--c",
            "2",
            "--kind",
            "uniform",
        ])
        .output()
        .expect("run gen");
    let solve = Command::new(bin())
        .args([
            "solve",
            "--input",
            csv.to_str().unwrap(),
            "--dim",
            "3",
            "--k",
            "4",
            "--balanced",
            "--no-skyline",
        ])
        .output()
        .expect("run solve");
    assert!(
        solve.status.success(),
        "{}",
        String::from_utf8_lossy(&solve.stderr)
    );
}

/// Kills the spawned server even when an assertion fails mid-test, so
/// failing runs don't leave orphaned `fairhms serve` processes behind.
struct KillOnDrop(Option<std::process::Child>);

impl KillOnDrop {
    fn child(&mut self) -> &mut std::process::Child {
        self.0.as_mut().unwrap()
    }

    /// Hands the child back for a graceful `wait()` at the end of the
    /// happy path.
    fn into_inner(mut self) -> std::process::Child {
        self.0.take().unwrap()
    }
}

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        if let Some(child) = &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Reads a spawned server's stdout up to its `listening on` banner and
/// returns that line.
fn listening_banner(out: &mut impl std::io::BufRead) -> String {
    loop {
        let mut line = String::new();
        assert_ne!(
            out.read_line(&mut line).unwrap(),
            0,
            "server exited before listening"
        );
        if line.starts_with("fairhms-service listening on ") {
            return line;
        }
    }
}

#[test]
fn serve_and_query_round_trip() {
    use std::io::{BufRead, BufReader, Write};

    let csv = tmp("cli_serve.csv");
    let gen = Command::new(bin())
        .args([
            "gen",
            "--out",
            csv.to_str().unwrap(),
            "--n",
            "300",
            "--d",
            "3",
            "--c",
            "3",
            "--seed",
            "11",
        ])
        .output()
        .expect("run gen");
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );

    // Port 0: the server prints the bound address on stdout.
    let mut server = KillOnDrop(Some(
        Command::new(bin())
            .args([
                "serve",
                "--data",
                &format!("anticor={}", csv.display()),
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                // Still accepted: `event` is the only front end.
                "--frontend",
                "event",
                // Streaming off, so a streamed batch is shed.
                "--max-streams",
                "0",
            ])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn serve"),
    ));
    let mut server_out = BufReader::new(server.child().stdout.take().unwrap());
    let banner = listening_banner(&mut server_out);
    let addr = banner.split_whitespace().nth(3).unwrap().to_string();

    // Single query through the CLI client.
    let query = Command::new(bin())
        .args([
            "query",
            "--addr",
            &addr,
            "--dataset",
            "anticor",
            "--k",
            "5",
            "--alg",
            "bigreedy",
            "--show-stats",
        ])
        .output()
        .expect("run query");
    assert!(
        query.status.success(),
        "{}",
        String::from_utf8_lossy(&query.stderr)
    );
    let out = String::from_utf8_lossy(&query.stdout);
    assert!(out.contains("cached    : false"), "{out}");
    assert!(out.contains("err(S)    : 0"), "{out}");

    // A negative slack is the server's protocol error, passed through.
    let query = Command::new(bin())
        .args([
            "query",
            "--addr",
            &addr,
            "--dataset",
            "anticor",
            "--k",
            "5",
            "--alpha",
            "-1",
        ])
        .output()
        .expect("run query");
    assert!(!query.status.success());
    let stderr = String::from_utf8_lossy(&query.stderr);
    assert!(
        stderr.contains("alpha: expected a finite number >= 0"),
        "{stderr}"
    );

    // Batch file: the same query twice plus a second algorithm → the
    // repeat must be served from cache.
    let batch = tmp("cli_batch.txt");
    std::fs::write(
        &batch,
        "# comment lines are skipped\n\
         dataset=anticor k=5 alg=bigreedy\n\
         dataset=anticor k=5 alg=bigreedy\n\
         QUERY dataset=anticor k=4 alg=f-greedy\n",
    )
    .unwrap();
    let query = Command::new(bin())
        .args(["query", "--addr", &addr, "--file", batch.to_str().unwrap()])
        .output()
        .expect("run batch query");
    assert!(
        query.status.success(),
        "{}",
        String::from_utf8_lossy(&query.stderr)
    );
    let out = String::from_utf8_lossy(&query.stdout);
    assert!(
        out.contains("batch: 3 queries, 1 served from cache, 0 errors")
            || out.contains("batch: 3 queries, 2 served from cache, 0 errors"),
        "{out}"
    );

    // A shed batch (`ERR busy`) is reported like any refused batch.
    let query = Command::new(bin())
        .args([
            "query",
            "--addr",
            &addr,
            "--file",
            batch.to_str().unwrap(),
            "--stream",
        ])
        .output()
        .expect("run streamed batch query");
    assert!(!query.status.success());
    let stderr = String::from_utf8_lossy(&query.stderr);
    assert!(
        stderr.contains("batch rejected: 0 streamed batches in flight (limit 0)"),
        "{stderr}"
    );

    // Shut the server down over the wire and wait for clean exit.
    let mut ctl = std::net::TcpStream::connect(&addr).unwrap();
    writeln!(ctl, "SHUTDOWN").unwrap();
    let mut bye = String::new();
    BufReader::new(ctl.try_clone().unwrap())
        .read_line(&mut bye)
        .unwrap();
    assert_eq!(bye.trim(), "OK bye");
    drop(ctl);
    let status = server.into_inner().wait().expect("server wait");
    assert!(status.success());
}

#[test]
fn helpful_errors() {
    let out = Command::new(bin()).output().expect("run bare");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));

    let out = Command::new(bin())
        .args([
            "solve",
            "--input",
            "/nonexistent.csv",
            "--dim",
            "2",
            "--k",
            "3",
        ])
        .output()
        .expect("run solve");
    assert!(!out.status.success());

    let out = Command::new(bin())
        .args(["frobnicate"])
        .output()
        .expect("run unknown");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn unknown_flags_are_rejected() {
    let cases: [(&[&str], &str); 17] = [
        (
            &["stats", "--input", "v.csv", "--dim", "4", "--bogus", "1"],
            "unknown flag --bogus",
        ),
        (
            &["serve", "--data", "v=v.csv", "--wrokers", "8"],
            "unknown flag --wrokers",
        ),
        (
            &["query", "--addr", "127.0.0.1:1", "--dim", "4"],
            "unknown flag --dim",
        ),
        (
            &["serve", "--data", "v=v.csv", "--frontend", "threaded"],
            "threaded front end was removed",
        ),
        (
            &["serve", "--data", "v=v.csv", "--shards", "4"],
            "unknown flag --shards",
        ),
        (
            &["serve", "--data", "v=v.csv", "--no-warmstart"],
            "unknown flag --no-warmstart",
        ),
        // Limits of 0 would start a server that never answers.
        (
            &["serve", "--data", "v=v.csv", "--workers", "0"],
            "--workers must be at least 1",
        ),
        // The answer cache holds at least one answer, so 0 is refused
        // rather than announced and then not kept.
        (
            &["serve", "--data", "v=v.csv", "--cache", "0"],
            "--cache must be at least 1",
        ),
        (
            &["serve", "--data", "v=v.csv", "--max-conns", "0"],
            "--max-conns must be at least 1",
        ),
        (
            &["serve", "--data", "v=v.csv", "--queue-depth", "0"],
            "--queue-depth must be at least 1",
        ),
        (
            &["serve", "--data", "v=v.csv", "--warm-capacity", "0"],
            "--warm-capacity must be at least 1",
        ),
        // `gen` cannot write a dataset with no rows, attributes or groups
        // (these used to panic or write a CSV nothing could read).
        (
            &[
                "gen",
                "--out",
                "/nonexistent/z.csv",
                "--n",
                "0",
                "--d",
                "3",
                "--c",
                "2",
            ],
            "--n must be at least 1",
        ),
        (
            &[
                "gen",
                "--out",
                "/nonexistent/z.csv",
                "--n",
                "9",
                "--d",
                "0",
                "--c",
                "2",
            ],
            "--d must be at least 1",
        ),
        (
            &[
                "gen",
                "--out",
                "/nonexistent/z.csv",
                "--n",
                "9",
                "--d",
                "3",
                "--c",
                "0",
            ],
            "--c must be at least 1",
        ),
        // The paper's bounds need a finite slack α ≥ 0.
        (
            &[
                "solve", "--input", "v.csv", "--dim", "3", "--k", "4", "--alpha", "-1",
            ],
            "alpha: expected a finite number >= 0",
        ),
        (
            &[
                "solve", "--input", "v.csv", "--dim", "3", "--k", "4", "--alpha", "NaN",
            ],
            "alpha: expected a finite number >= 0",
        ),
        (
            &[
                "solve", "--input", "v.csv", "--dim", "3", "--k", "4", "--alpha", "inf",
            ],
            "alpha: expected a finite number >= 0",
        ),
    ];
    for (args, expected) in cases {
        let out = Command::new(bin()).args(args).output().expect("run cli");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
    }
}

/// The `rows` and `err(S)` lines of a `solve` or single-query `query`
/// run; both commands print them in the same format.
fn rows_and_err(out: &std::process::Output, what: &str) -> (String, String) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{what}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = |prefix: &str| {
        stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("{what}: no {prefix:?} line in {stdout}"))
            .to_string()
    };
    (line("rows      :"), line("err(S)    :"))
}

/// `fairhms solve` and `fairhms query` against `fairhms serve` on the
/// same CSV pick the same rows with the same fairness-violation count,
/// for both bound policies and both candidate forms.
#[test]
fn solve_and_served_query_agree() {
    use std::io::{BufReader, Write};

    let csv = tmp("cli_agree.csv");
    let gen = Command::new(bin())
        .args([
            "gen",
            "--out",
            csv.to_str().unwrap(),
            "--n",
            "250",
            "--d",
            "3",
            "--c",
            "3",
            "--seed",
            "23",
        ])
        .output()
        .expect("run gen");
    assert!(gen.status.success());

    let mut server = KillOnDrop(Some(
        Command::new(bin())
            .args([
                "serve",
                "--data",
                &format!("agree={}", csv.display()),
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
            ])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn serve"),
    ));
    let mut server_out = BufReader::new(server.child().stdout.take().unwrap());
    let banner = listening_banner(&mut server_out);
    let addr = banner.split_whitespace().nth(3).unwrap().to_string();

    for alg in ["bigreedy", "f-greedy"] {
        for flags in [
            &[][..],
            &["--no-skyline"][..],
            &["--balanced"][..],
            &["--no-skyline", "--balanced"][..],
        ] {
            let what = format!("--alg {alg} {flags:?}");
            let solve = Command::new(bin())
                .args(["solve", "--input", csv.to_str().unwrap(), "--dim", "3"])
                .args(["--k", "5", "--alg", alg])
                .args(flags)
                .output()
                .expect("run solve");
            let query = Command::new(bin())
                .args(["query", "--addr", &addr, "--dataset", "agree"])
                .args(["--k", "5", "--alg", alg])
                .args(flags)
                .output()
                .expect("run query");
            assert_eq!(
                rows_and_err(&solve, &format!("solve {what}")),
                rows_and_err(&query, &format!("query {what}")),
                "{what}"
            );
        }
    }

    let mut ctl = std::net::TcpStream::connect(&addr).unwrap();
    writeln!(ctl, "SHUTDOWN").unwrap();
    drop(ctl);
    let status = server.into_inner().wait().expect("server wait");
    assert!(status.success());
}
