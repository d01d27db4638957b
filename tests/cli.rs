//! The `fastod` binary end to end. `--stream` picks the reader and nothing
//! else: on one generated CSV, `serve` replays the same mutations from
//! either reader, and discovery, `--violations` and `check` print the same
//! stdout, witnesses' cell values included.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A generated CSV in the temp dir, deleted when dropped.
struct Csv(PathBuf);

impl Csv {
    /// 400 rows of `k,grp,val,tag,opt`: a key, a 7-value group, a value
    /// that swaps against `tag` inside groups, and a column whose every
    /// ninth cell is null.
    fn generate(name: &str) -> Csv {
        let path =
            std::env::temp_dir().join(format!("fastod_cli_{}_{name}.csv", std::process::id()));
        let mut text = String::from("k,grp,val,tag,opt\n");
        for i in 0..400 {
            let opt = if i % 9 == 0 {
                String::new()
            } else {
                (i % 4).to_string()
            };
            text.push_str(&format!(
                "{i},g{},{},t{},{opt}\n",
                i % 7,
                (i * 37) % 101,
                i % 5
            ));
        }
        std::fs::write(&path, text).unwrap();
        Csv(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for Csv {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn fastod(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fastod"))
        .args(args)
        .output()
        .expect("the fastod binary runs")
}

/// The text after the first `marker` in `text`.
fn after<'a>(text: &'a str, marker: &str) -> &'a str {
    let at = text
        .find(marker)
        .unwrap_or_else(|| panic!("no {marker:?} in:\n{text}"));
    &text[at + marker.len()..]
}

/// The number `text` starts with.
fn number(text: &str) -> u64 {
    let digits: String = text.chars().take_while(char::is_ascii_digit).collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("no number at {text:?}"))
}

/// What a `serve` run ends at: `[final epoch, cover size, live rows]`, and
/// its reads and reader threads.
fn serve_summary(out: &Output) -> ([u64; 3], u64, u64) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "serve failed:\n{stderr}");
    let last = after(&stderr, "final epoch ");
    let end = [
        number(last),
        number(after(last, "cover = ")),
        number(after(last, " ODs over ")),
    ];
    let reads = stderr
        .lines()
        .find(|line| line.contains(" reads across "))
        .unwrap_or_else(|| panic!("no read summary in:\n{stderr}"));
    (end, number(reads), number(after(reads, " reads across ")))
}

#[test]
fn serve_replays_the_same_mutations_from_either_reader() {
    let csv = Csv::generate("serve");
    let args = [
        "serve",
        csv.path(),
        "--nulls",
        "last",
        "--readers",
        "2",
        "--batch",
        "50",
    ];
    let (one_shot, reads, readers) = serve_summary(&fastod(&args));
    // Four append passes, then four delete waves back to the 200 seed rows.
    assert_eq!((one_shot[0], one_shot[2]), (8, 200));
    assert_eq!(readers, 2);
    assert!(reads >= readers, "{reads} reads across {readers} readers");
    let (streamed, reads, readers) = serve_summary(&fastod(&[&args[..], &["--stream"]].concat()));
    assert_eq!(streamed, one_shot);
    assert!(
        reads >= readers,
        "{reads} reads across {readers} readers (streamed)"
    );
}

#[test]
fn stream_changes_no_discovery_or_check_output() {
    let csv = Csv::generate("discover");
    let path = csv.path();
    let runs: [&[&str]; 3] = [
        &[path, "--nulls", "first"],
        &[path, "--nulls", "first", "--violations", "grp:val~tag"],
        &[
            "check",
            path,
            "--nulls",
            "last",
            "--od",
            "grp:val~tag",
            "--od",
            "k:[]->opt",
        ],
    ];
    let mut stdout = String::new();
    for args in runs {
        let one_shot = fastod(args);
        let streamed = fastod(&[args, &["--stream"]].concat());
        stdout = String::from_utf8_lossy(&streamed.stdout).into_owned();
        assert!(!stdout.is_empty(), "{args:?} printed nothing");
        assert_eq!(one_shot.status.code(), streamed.status.code(), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&one_shot.stdout),
            stdout,
            "{args:?}"
        );
    }
    // The streamed check's witnesses print cell values, not row ids.
    assert!(
        after(&stdout, "witness: ").starts_with("swap: within {grp} tuple"),
        "{stdout}"
    );
}
