//! End-to-end tests of the `repro` reproduction harness binary.

use std::process::Command;

fn repro(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn list_names_every_experiment() {
    let (ok, stdout, _) = repro(&["--list"]);
    assert!(ok);
    for id in [
        "fig2", "fig3", "fig5", "fig7", "table1", "table2", "table3", "table4", "table5", "table6",
        "table7", "table8", "esd", "ablation",
    ] {
        assert!(stdout.lines().any(|l| l == id), "missing {id}");
    }
}

#[test]
fn fig2_regenerates_the_headline_ratio() {
    let (ok, stdout, _) = repro(&["--experiment", "fig2"]);
    assert!(ok);
    assert!(stdout.contains("Figure 2"));
    assert!(stdout.contains("nearly 2 times smaller"));
}

#[test]
fn table8_echoes_the_reconstruction() {
    let (ok, stdout, _) = repro(&["--experiment", "table8"]);
    assert!(ok);
    assert!(stdout.contains("ntrs-0.25um-cu"));
    assert!(stdout.contains("ntrs-0.1um-cu"));
    assert!(stdout.contains("0.085"), "sheet-ρ fragment mentioned");
}

#[test]
fn table7_prints_the_reported_current_densities() {
    let (ok, stdout, _) = repro(&["--experiment", "table7"]);
    assert!(ok);
    let last_field = |prefix: &str| {
        let line = stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` row in:\n{stdout}"));
        line.split_whitespace().last().unwrap().to_owned()
    };
    assert_eq!(last_field("M1–M4 heated"), "6.6");
    assert_eq!(last_field("Isolated M4 heated"), "11.1");
    assert!(stdout.contains("measured reduction here: 41 %"), "{stdout}");
}

#[test]
fn unknown_experiment_fails() {
    let (ok, _, stderr) = repro(&["--experiment", "fig99"]);
    assert!(!ok);
    assert!(stderr.contains("unknown experiment"));
}

#[test]
fn csv_flag_writes_series() {
    let dir = std::env::temp_dir().join(format!("hotwire-repro-{}", std::process::id()));
    let (ok, stdout, _) = repro(&["--csv", dir.to_str().unwrap()]);
    assert!(ok, "{stdout}");
    assert!(dir.join("fig2.csv").exists());
    assert!(dir.join("fig7_0.1um.csv").exists());
    std::fs::remove_dir_all(&dir).ok();
}
