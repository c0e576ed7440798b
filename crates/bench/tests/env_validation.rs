//! The repro binary's fail-fast contract for its env vars: every
//! malformed `MOAT_TELEMETRY` / `MOAT_LOG` / fault / recovery form is
//! rejected at startup with exit code 2 and a `repro:`-prefixed message
//! naming the variable — never silently ignored (which would run an
//! *unobserved* or *unfaulted* experiment while the operator believes
//! telemetry or chaos is armed).

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn each_malformed_observability_env_form_exits_2() {
    let cases: [(&str, &str); 13] = [
        ("MOAT_TELEMETRY", "level"),           // not key=value
        ("MOAT_TELEMETRY", "level=verbose"),   // unknown level
        ("MOAT_TELEMETRY", "sink=flamegraph"), // unknown sink
        ("MOAT_TELEMETRY", "depth=3"),         // unknown key
        ("MOAT_TELEMETRY", "level=Full"),      // grammar is lowercase
        ("MOAT_LOG", "debug"),                 // unknown level
        ("MOAT_LOG", "WARN"),                  // grammar is lowercase
        ("MOAT_LOG", "warn,info"),             // one level, not a list
        ("MOAT_FAULTS", "seu=1e-3,seu=0"),     // a key given twice
        ("MOAT_FLEET_FAULTS", "crash=2"),      // rate outside [0, 1]
        ("MOAT_RECOVERY", "fallback=yes"),     // not on|off
        ("MOAT_IO_FAULTS", "write=x"),         // non-numeric count
        ("MOAT_FAULTS", "seu=2"),              // rate outside [0, 1]
    ];
    for (var, bad) in cases {
        let out = repro()
            .arg("list")
            .env(var, bad)
            .output()
            .expect("repro binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{var}={bad} must fail the invocation with exit 2"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("repro: ") && stderr.contains(var),
            "{var}={bad} must explain itself on stderr, naming {var}, got: {stderr}"
        );
    }
}

#[cfg(unix)]
#[test]
fn non_unicode_observability_env_exits_2() {
    use std::os::unix::ffi::OsStringExt;
    for var in [
        "MOAT_TELEMETRY",
        "MOAT_LOG",
        "MOAT_FAULTS",
        "MOAT_FLEET_FAULTS",
        "MOAT_RECOVERY",
        "MOAT_IO_FAULTS",
    ] {
        let bogus = std::ffi::OsString::from_vec(vec![0x66, 0xFF, 0x67]);
        let out = repro()
            .arg("list")
            .env(var, &bogus)
            .output()
            .expect("repro binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "non-Unicode {var} must fail the invocation with exit 2"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("not valid Unicode") && stderr.contains(var),
            "non-Unicode {var} must be named on stderr, got: {stderr}"
        );
    }
}

#[test]
fn each_malformed_arena_engines_env_form_exits_2() {
    // Same fail-fast discipline as the observability vars: a typo'd
    // engine selection must never silently run the default arena.
    let cases: [&str; 6] = [
        "",           // empty selection
        "tortuga",    // unknown engine
        "moat,",      // trailing empty item
        ",moat",      // leading empty item
        "moat,,dsac", // interior empty item
        "moat,moat",  // duplicate
    ];
    for bad in cases {
        let out = repro()
            .arg("list")
            .env("MOAT_ARENA_ENGINES", bad)
            .output()
            .expect("repro binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "MOAT_ARENA_ENGINES={bad:?} must fail the invocation with exit 2"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("repro: ") && stderr.contains("MOAT_ARENA_ENGINES"),
            "MOAT_ARENA_ENGINES={bad:?} must explain itself on stderr, got: {stderr}"
        );
    }
}

#[cfg(unix)]
#[test]
fn non_unicode_arena_engines_env_exits_2() {
    use std::os::unix::ffi::OsStringExt;
    let bogus = std::ffi::OsString::from_vec(vec![0x66, 0xFF, 0x67]);
    let out = repro()
        .arg("list")
        .env("MOAT_ARENA_ENGINES", &bogus)
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("MOAT_ARENA_ENGINES") && stderr.contains("unicode"),
        "non-Unicode MOAT_ARENA_ENGINES must be named on stderr, got: {stderr}"
    );
}

#[test]
fn well_formed_arena_engines_env_is_accepted() {
    let out = repro()
        .arg("list")
        .env("MOAT_ARENA_ENGINES", "moat,abacus,comet,dsac,cnc-prac")
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(0), "valid selection must not fail");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("arena"), "arena is a listed command");
}

#[test]
fn malformed_arena_engines_flag_exits_2() {
    for bad in ["tortuga", "moat,,dsac", "moat,moat"] {
        let out = repro()
            .args(["arena", "--engines", bad])
            .output()
            .expect("repro binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "arena --engines {bad:?} must exit 2 before running any cell"
        );
    }
}

#[test]
fn well_formed_observability_env_is_accepted() {
    let out = repro()
        .arg("list")
        .env("MOAT_TELEMETRY", "level=full,sink=json")
        .env("MOAT_LOG", "info")
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(0), "valid grammar must not fail");
}
