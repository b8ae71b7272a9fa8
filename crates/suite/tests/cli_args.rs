//! Argument handling of the paper reproduction binaries: an unknown
//! flag or a bad value is an error (the usage line on stderr, exit
//! status 2), never silently taken as a benchmark filter or ignored.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

fn assert_rejected(bin: &str, name: &str, args: &[&str]) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{name} {args:?} must exit 2; stderr: {stderr}"
    );
    assert!(
        stderr.contains(&format!("usage: {name}")),
        "{name} {args:?} must print its usage line; stderr: {stderr}"
    );
}

#[test]
fn fig9_rejects_unknown_flags() {
    let fig9 = env!("CARGO_BIN_EXE_fig9");
    assert_rejected(fig9, "fig9", &["--no-such-flag"]);
    // A removed flag is unknown too, even next to a filter that
    // selects no row.
    assert_rejected(fig9, "fig9", &["no-such-benchmark", "--no-symmetry"]);
    // A row number must name a row.
    assert_rejected(fig9, "fig9", &["--row", "999"]);
    assert_rejected(fig9, "fig9", &["--row"]);
    // A filter alone is still a filter.
    let out = run(fig9, &["no-such-benchmark"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("0/0 rows match"));
}

#[test]
fn table1_rejects_unknown_flags() {
    let table1 = env!("CARGO_BIN_EXE_table1");
    assert_rejected(table1, "table1", &["--no-such-flag"]);
    assert_rejected(table1, "table1", &["--dump", "queueE1", "--no-symmetry"]);
    let out = run(table1, &["--no-por", "--dump", "queueE1"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("harness"));
}

#[test]
fn psketch_rejects_removed_flags_and_bad_values() {
    let psketch = env!("CARGO_BIN_EXE_psketch");
    let sketch = std::env::temp_dir().join(format!("psketch-cli-args-{}.psk", std::process::id()));
    std::fs::write(
        &sketch,
        "int g; harness void main() { g = ??(2); assert g == 1; }",
    )
    .expect("cannot write the sketch");
    let file = sketch.to_str().expect("temp path is UTF-8");
    let out = run(psketch, &[file]);
    assert_eq!(out.status.code(), Some(0), "the sketch resolves");
    // Verification runs on one thread with one candidate per
    // iteration: the flags that changed either are gone.
    assert_rejected(psketch, "psketch", &[file, "--threads", "2"]);
    assert_rejected(psketch, "psketch", &[file, "--portfolio", "3"]);
    // 2^44 MiB is 2^64 bytes: no budget, not a wrapped one of 0 bytes.
    assert_rejected(
        psketch,
        "psketch",
        &[file, "--memory-budget", "17592186044416"],
    );
    let _ = std::fs::remove_file(&sketch);
}
