//! `repro_all --only`: experiment selection by DESIGN.md §5 id.

use std::process::Command;

fn repro_all(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(args)
        .output()
        .expect("run repro_all")
}

#[test]
fn only_runs_the_named_experiments() {
    let out = repro_all(&["--only", "t1", "--scale", "tiny"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("## T1"), "{stdout}");
    assert!(!stdout.contains("## F3"), "{stdout}");
}

#[test]
fn unknown_or_missing_ids_are_usage_errors() {
    for args in [&["--only", "f3,zz"][..], &["--only"][..]] {
        let out = repro_all(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: repro_all"));
    }
}
