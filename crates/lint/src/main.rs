//! The `bao-lint` binary: run the workspace invariant lints.
//!
//! ```text
//! bao-lint [--root DIR] [--only rule1,rule2] [--json [PATH]] [--list-rules]
//! ```
//!
//! Exit status: 0 when clean, 1 when any diagnostic fired, 2 on usage or
//! I/O errors. `--json` additionally writes a machine-readable report
//! (default `results/lint_report.json`) for trend tracking across PRs.

use bao_common::json::ToJson;
use bao_lint::{find_workspace_root, run, RuleId};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: Option<PathBuf>,
    rules: Vec<RuleId>,
    json_out: Option<PathBuf>,
    list_rules: bool,
}

fn usage() -> &'static str {
    "usage: bao-lint [--root DIR] [--only rule1,rule2] [--json [PATH]] [--list-rules]"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        rules: RuleId::ALL.to_vec(),
        json_out: None,
        list_rules: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                let dir = args.get(i).ok_or("--root needs a directory")?;
                opts.root = Some(PathBuf::from(dir));
            }
            "--only" => {
                i += 1;
                let list = args.get(i).ok_or("--only needs a rule list")?;
                let mut rules = Vec::new();
                for name in list.split(',') {
                    let rule = RuleId::parse(name.trim())
                        .ok_or_else(|| format!("unknown rule `{name}`"))?;
                    if !rules.contains(&rule) {
                        rules.push(rule);
                    }
                }
                if rules.is_empty() {
                    return Err("--only needs at least one rule".into());
                }
                opts.rules = rules;
            }
            "--json" => {
                // Optional path operand; default under results/.
                match args.get(i + 1) {
                    Some(p) if !p.starts_with("--") => {
                        opts.json_out = Some(PathBuf::from(p));
                        i += 1;
                    }
                    _ => opts.json_out = Some(PathBuf::from("results/lint_report.json")),
                }
            }
            "--list-rules" => opts.list_rules = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("bao-lint: {msg}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for r in RuleId::ALL {
            println!("{:<20} {}", r.name(), r.describe());
        }
        return ExitCode::SUCCESS;
    }

    let root = match opts.root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("bao-lint: could not locate a workspace root (try --root)");
            return ExitCode::from(2);
        }
    };

    let report = match run(&root, &opts.rules) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bao-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    for d in &report.diagnostics {
        println!("{d}");
    }
    let counts: Vec<String> = report
        .counts()
        .into_iter()
        .map(|(r, n)| format!("{}={n}", r.name()))
        .collect();
    eprintln!(
        "bao-lint: {} file(s) scanned, {} finding(s) [{}], {} production line(s)",
        report.files_scanned,
        report.diagnostics.len(),
        counts.join(" "),
        report.production_lines
    );

    if let Some(out) = &opts.json_out {
        let path = if out.is_absolute() { out.clone() } else { root.join(out) };
        if let Some(dir) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("bao-lint: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
        let text = report.to_json().to_string_pretty();
        if let Err(e) = std::fs::write(&path, text + "\n") {
            eprintln!("bao-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("bao-lint: report written to {}", path.display());
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
