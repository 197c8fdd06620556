//! `rls-lint` command-line entry point.
//!
//! ```text
//! rls-lint [--root DIR] [--baseline FILE] [--update-baseline]
//!          [--only FAMILY] [--fix-stale] [--json]
//! ```
//!
//! Exit codes: 0 — clean (or no findings beyond the baseline); 1 —
//! findings (new findings when a baseline is given); 2 — usage or I/O
//! error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rls_lint::baseline;
use rls_lint::rules::{self, Finding};

const USAGE: &str = "\
rls-lint: workspace invariant linter (determinism, panic-safety, atomics,
          concurrency flow, persistence)

USAGE:
    rls-lint [OPTIONS]

OPTIONS:
    --root DIR           workspace root to lint (default: .)
    --baseline FILE      gate against a committed baseline: only findings
                         absent from FILE fail the run (lock-order,
                         persist-protocol, and hygiene findings are never
                         baselined — they always fail)
    --update-baseline    rewrite FILE (requires --baseline) with the
                         current findings, preserving per-entry notes,
                         and exit 0
    --only FAMILY        report only one rule family (determinism,
                         panic-safety, atomics, concurrency, persistence,
                         observability, hygiene)
    --fix-stale          delete dead `lint:` markers reported as
                         stale-blessing, then re-lint
    --json               emit findings as JSON lines (with `family` and
                         `witness`) instead of text
    -h, --help           print this help
";

struct Options {
    root: PathBuf,
    baseline: Option<PathBuf>,
    update_baseline: bool,
    only: Option<String>,
    fix_stale: bool,
    json: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        baseline: None,
        update_baseline: false,
        only: None,
        fix_stale: false,
        json: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let value = it.next().ok_or("--root requires a value")?;
                opts.root = PathBuf::from(value);
            }
            "--baseline" => {
                let value = it.next().ok_or("--baseline requires a value")?;
                opts.baseline = Some(PathBuf::from(value));
            }
            "--update-baseline" => opts.update_baseline = true,
            "--only" => {
                let value = it.next().ok_or("--only requires a family name")?;
                opts.only = Some(value.clone());
            }
            "--fix-stale" => opts.fix_stale = true,
            "--json" => opts.json = true,
            "-h" | "--help" => return Ok(None),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.update_baseline && opts.baseline.is_none() {
        return Err("--update-baseline requires --baseline".to_string());
    }
    Ok(Some(opts))
}

fn print_finding(f: &Finding, json: bool) {
    if json {
        let witness = rls_dispatch::jsonl::array(
            f.witness
                .iter()
                .map(|w| format!("\"{}\"", rls_dispatch::jsonl::escape(w))),
        );
        let line = rls_dispatch::jsonl::JsonObject::new()
            .str("file", &f.file)
            .num("line", u64::from(f.line))
            .str("rule", &f.rule)
            .str("family", rules::family(&f.rule))
            .str("snippet", &f.snippet)
            .str("message", &f.message)
            .raw("witness", &witness)
            .render();
        println!("{line}");
    } else {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        if !f.snippet.is_empty() {
            println!("    {}", f.snippet);
        }
        for (i, hop) in f.witness.iter().enumerate() {
            println!("    witness[{i}]: {hop}");
        }
    }
}

/// Deletes the dead markers behind `stale-blessing` findings: a line
/// that is nothing but the marker is removed whole; a trailing marker is
/// stripped from its code line. Returns how many markers were removed.
fn fix_stale(root: &Path, findings: &[Finding]) -> Result<usize, String> {
    let mut removed = 0usize;
    let mut stale: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == "stale-blessing")
        .collect();
    stale.sort_by(|a, b| {
        (&a.file, std::cmp::Reverse(a.line)).cmp(&(&b.file, std::cmp::Reverse(b.line)))
    });
    let mut current: Option<(String, Vec<String>)> = None;
    for f in &stale {
        if current.as_ref().map(|(file, _)| file.as_str()) != Some(f.file.as_str()) {
            if let Some((file, lines)) = current.take() {
                write_lines(root, &file, lines)?;
            }
            let text = std::fs::read_to_string(root.join(&f.file))
                .map_err(|e| format!("reading `{}` for --fix-stale: {e}", f.file))?;
            current = Some((f.file.clone(), text.lines().map(str::to_string).collect()));
        }
        if let Some((_, lines)) = current.as_mut() {
            let idx = f.line.saturating_sub(1) as usize;
            if let Some(line) = lines.get_mut(idx) {
                match line.find("// lint:") {
                    Some(pos) if line.get(..pos).is_some_and(|s| s.trim().is_empty()) => {
                        lines.remove(idx);
                        removed += 1;
                    }
                    Some(pos) => {
                        *line = line.get(..pos).map(str::trim_end).unwrap_or("").to_string();
                        removed += 1;
                    }
                    None => {}
                }
            }
        }
    }
    if let Some((file, lines)) = current.take() {
        write_lines(root, &file, lines)?;
    }
    Ok(removed)
}

fn write_lines(root: &Path, file: &str, lines: Vec<String>) -> Result<(), String> {
    let mut text = lines.join("\n");
    text.push('\n');
    std::fs::write(root.join(file), text).map_err(|e| format!("writing `{file}`: {e}"))
}

fn run(opts: &Options) -> Result<ExitCode, String> {
    let mut findings =
        rls_lint::lint_workspace(&opts.root).map_err(|e| format!("lint walk failed: {e}"))?;

    if opts.fix_stale {
        let removed = fix_stale(&opts.root, &findings)?;
        eprintln!("rls-lint: --fix-stale removed {removed} dead marker(s)");
        findings =
            rls_lint::lint_workspace(&opts.root).map_err(|e| format!("lint walk failed: {e}"))?;
    }

    if opts.update_baseline {
        if let Some(path) = &opts.baseline {
            let old = match std::fs::read_to_string(path) {
                Ok(text) => baseline::parse(&text)
                    .map_err(|e| format!("parsing baseline `{}`: {e}", path.display()))?,
                Err(_) => Vec::new(),
            };
            let rebuilt = baseline::rebuild(&findings, &old);
            std::fs::write(path, baseline::render(&rebuilt))
                .map_err(|e| format!("writing baseline `{}`: {e}", path.display()))?;
            eprintln!(
                "rls-lint: baseline `{}` updated with {} finding(s) ({} excluded as non-baselineable)",
                path.display(),
                rebuilt.len(),
                findings
                    .iter()
                    .filter(|f| !rules::baselineable(&f.rule))
                    .count()
            );
            return Ok(ExitCode::SUCCESS);
        }
    }

    if let Some(only) = &opts.only {
        findings.retain(|f| rules::family(&f.rule) == only);
    }

    let report: Vec<&Finding> = match &opts.baseline {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading baseline `{}`: {e}", path.display()))?;
            let entries = baseline::parse(&text)
                .map_err(|e| format!("parsing baseline `{}`: {e}", path.display()))?;
            baseline::new_findings(&findings, &entries)
        }
        None => findings.iter().collect(),
    };

    rls_obs::counter!("lint.findings", report.len() as u64);
    for f in &report {
        print_finding(f, opts.json);
    }
    let gated = opts.baseline.is_some();
    if report.is_empty() {
        if gated {
            eprintln!(
                "rls-lint: clean — {} baselined finding(s), 0 new",
                findings.len()
            );
        } else {
            eprintln!("rls-lint: clean — 0 findings");
        }
        Ok(ExitCode::SUCCESS)
    } else {
        if gated {
            eprintln!(
                "rls-lint: {} NEW finding(s) not in the baseline (of {} total); fix them or bless deliberate sites with a `lint:` marker",
                report.len(),
                findings.len()
            );
        } else {
            eprintln!("rls-lint: {} finding(s)", report.len());
        }
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Some(opts)) => match run(&opts) {
            Ok(code) => code,
            Err(message) => {
                eprintln!("rls-lint: error: {message}");
                ExitCode::from(2)
            }
        },
        Ok(None) => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("rls-lint: error: {message}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
