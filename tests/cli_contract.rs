//! The command-line contract of the `repro` and `audit` binaries: a bad
//! invocation prints usage (or names the bad input) and exits 2, without
//! panicking and without running anything.

use std::path::PathBuf;
use std::process::{Command, Output};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");
const AUDIT: &str = env!("CARGO_BIN_EXE_audit");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

/// Runs `bin args`, asserts exit code 2 without a panic, returns stderr.
fn assert_rejected(bin: &str, args: &[&str]) -> String {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} exit code; stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran something");
    stderr
}

#[test]
fn repro_rejects_unknown_arguments() {
    for args in [&["--help"][..], &["E99"], &["E1", "--bogus"]] {
        let stderr = assert_rejected(REPRO, args);
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    }
}

#[test]
fn audit_rejects_bad_invocations() {
    for args in [
        &["--bogus"][..],
        &["--max-n", "x"],
        &["--shards", "0"],
        &["--shard", "0/2", "--shards", "2"],
    ] {
        assert_rejected(AUDIT, args);
    }
}

/// A shard report is untrusted input: an item index outside the report's
/// range fails the merge with exit 2 and an error naming the item, instead
/// of panicking inside the universe lookup.
#[test]
fn audit_merge_rejects_an_out_of_range_item() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-contract-merge");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the shard directory");
    let base = ["--decoder", "degree-one", "--max-n", "3"];
    for shard in ["0/2", "1/2"] {
        let path = dir.join(format!("shard-{}.txt", &shard[..1]));
        let path = path.to_str().expect("utf-8 path");
        let mut args = base.to_vec();
        args.extend(["--shard", shard, "--shard-out", path]);
        assert_eq!(run(AUDIT, &args).status.code(), Some(0), "shard {shard}");
    }
    let first = dir.join("shard-0.txt");
    let report = std::fs::read_to_string(&first).expect("shard 0 report");
    assert!(report.contains("\np 0 1\n"), "{report}");
    std::fs::write(&first, report.replace("\np 0 1\n", "\np 99999 1\n")).expect("tamper");
    let mut args = base.to_vec();
    args.extend(["--shards-from", dir.to_str().expect("utf-8 path")]);
    let stderr = assert_rejected(AUDIT, &args);
    assert!(stderr.contains("item 99999"), "{stderr}");
}

/// `--sequential` is gone (`--threads 1` runs on the calling thread): it
/// is an unknown flag like any other.
#[test]
fn audit_rejects_the_removed_sequential_flag() {
    let stderr = assert_rejected(AUDIT, &["--sequential"]);
    assert!(stderr.contains("unknown flag --sequential"), "{stderr}");
    assert!(stderr.contains("usage: audit"), "{stderr}");
}

/// The worker count changes nothing but each panel's own `"threads"`
/// field: `--threads 1` and `--threads 2` emit the same stable report,
/// byte for byte once that field is masked, and the same exit code.
#[test]
fn audit_stable_report_is_independent_of_the_thread_count() {
    let report = |threads: &str| {
        let args = ["--decoder", "degree-one", "--max-n", "3", "--stable"];
        let out = run(AUDIT, &[&args[..], &["--threads", threads]].concat());
        let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
        let masked: Vec<String> = stdout
            .lines()
            .map(|line| match line.find("\"threads\": ") {
                Some(at) => format!("{}\"threads\": _", &line[..at]),
                None => line.to_string(),
            })
            .collect();
        (out.status.code(), masked)
    };
    let one = report("1");
    assert!(one.1.len() > 20, "a whole report: {:?}", one.1);
    assert_eq!(one, report("2"));
}
