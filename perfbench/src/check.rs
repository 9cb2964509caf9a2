//! Correctness checks against references that do not go through the layer
//! under test.
//!
//! Analyze ops are compared with expected files kept beside the benchmark:
//! the points-to set of every top-level variable keyed by name, and the
//! multiset of lint diagnostics. Serve answers are recomputed from the
//! `Fsam` result directly — never through a query engine, snapshot, cache
//! or server.

use fsam::Fsam;
use fsam_ir::Module;
use fsam_lint::LintReport;
use fsam_query::{Answer, Query};

/// Every variable with a non-empty points-to set, one line each, sorted:
/// `func::var -> {obj, obj, ...}` with the object names sorted. A variable
/// whose set is empty has no line, so any change to any set changes the
/// listing.
pub fn pts_listing(module: &Module, fsam: &Fsam) -> String {
    let objects = fsam.pre.objects();
    let names: Vec<String> = objects
        .mem_ids()
        .map(|m| objects.display_name(module, m))
        .collect();
    let mut lines: Vec<String> = module
        .var_ids()
        .filter_map(|v| {
            let set = fsam.result.pt_var(v);
            if set.is_empty() {
                return None;
            }
            let mut objs: Vec<&str> = set.iter().map(|m| names[m.index()].as_str()).collect();
            objs.sort_unstable();
            let info = module.var(v);
            Some(format!(
                "{}::{} -> {{{}}}",
                module.func(info.func).name,
                info.name,
                objs.join(", ")
            ))
        })
        .collect();
    lines.sort_unstable();
    join_lines(lines)
}

/// The report's diagnostics as a sorted multiset of
/// `code level message` lines; suppressed ones are prefixed with
/// `suppressed`.
pub fn diag_listing(report: &LintReport) -> String {
    let line = |d: &fsam_lint::Diagnostic| {
        format!("{} {} {}", d.code, d.severity.sarif_level(), d.message)
    };
    let mut lines: Vec<String> = report
        .diagnostics
        .iter()
        .map(line)
        .chain(
            report
                .suppressed
                .iter()
                .map(|d| format!("suppressed {}", line(d))),
        )
        .collect();
    lines.sort_unstable();
    join_lines(lines)
}

fn join_lines(lines: Vec<String>) -> String {
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// The answer to `q` computed from the analysis result itself:
/// `points_to` is the solved set, `may_alias` is a non-empty intersection
/// (false when either set is empty), `mhp` is `Fsam::mhp_refined`.
pub fn reference_answer(fsam: &Fsam, q: Query) -> Answer {
    match q {
        Query::PointsTo(v) => Answer::Objects(fsam.result.pt_var(v).iter().collect()),
        Query::MayAlias(p, q) => {
            let (a, b) = (fsam.result.pt_var(p), fsam.result.pt_var(q));
            Answer::Bool(!a.is_empty() && !b.is_empty() && a.intersects(b))
        }
        Query::Mhp(a, b) => Answer::Bool(fsam.mhp_refined(a, b)),
        Query::AliasesOf(_) => panic!("the serve workload issues no aliases_of queries"),
    }
}

/// How many of `answers` differ from `expected` (a length mismatch counts
/// every missing or extra answer).
pub fn mismatches(answers: &[Answer], expected: &[Answer]) -> usize {
    let differing = answers.iter().zip(expected).filter(|(a, e)| a != e).count();
    differing + answers.len().abs_diff(expected.len())
}
