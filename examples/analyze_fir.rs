//! Analyze a FIR source file from the command line.
//!
//! ```text
//! cargo run --example analyze_fir -- path/to/program.fir [--races] [--report]
//! cargo run --example analyze_fir            # runs on a built-in demo
//! ```
//!
//! Parses the program, verifies it, runs the full FSAM pipeline and prints
//! the flow-sensitive points-to set of every variable. `--races` also runs
//! the `fsam-lint` concurrency checkers; `--report` prints per-phase
//! statistics.

use fsam::Fsam;
use fsam_ir::parse::parse_module;
use fsam_lint::{render_text, LintContext, Registry};
use fsam_query::QueryEngine;

const DEMO: &str = r#"
// A worker pool incrementing a shared counter under a lock, with an
// unsynchronized reader.
global counter
global mu

func worker(c) {
entry:
  l = &mu
  lock l
  v = load c
  store c, v
  unlock l
  ret
}

func main() {
entry:
  c = &counter
  t1 = fork worker(c)
  t2 = fork worker(c)
  snapshot = load c     // races with the workers' stores
  join t1
  join t2
  final = load c        // ordered: after both joins
  ret
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let want_races = args.iter().any(|a| a == "--races");
    let want_report = args.iter().any(|a| a == "--report");
    let path = args.iter().skip(1).find(|a| !a.starts_with("--"));

    let source = match path {
        Some(p) => std::fs::read_to_string(p)?,
        None => {
            println!("(no file given; analyzing the built-in demo)\n");
            DEMO.to_owned()
        }
    };

    let module = match parse_module(&source) {
        Ok(m) => m,
        Err(e) => {
            // Display form carries the line:column position.
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    if let Err(errors) = fsam_ir::verify::verify_module(&module) {
        eprintln!("program is ill-formed:");
        for e in errors.iter().take(10) {
            eprintln!("  {e}");
        }
        std::process::exit(1);
    }

    let fsam = Fsam::analyze(&module);

    println!("== flow-sensitive points-to sets ==");
    for func in module.funcs() {
        if func.is_external {
            continue;
        }
        for v in module.var_ids().filter(|&v| module.var(v).func == func.id) {
            let pts = fsam.result.pt_var(v);
            if pts.is_empty() {
                continue;
            }
            let names: Vec<String> = pts
                .iter()
                .map(|o| fsam.pre.objects().display_name(&module, o))
                .collect();
            println!("  pt({}) = {{{}}}", module.var_name(v), names.join(", "));
        }
    }

    let engine = QueryEngine::from_fsam(&module, &fsam);
    if want_races || path.is_none() {
        let cx = LintContext::new(&module, &fsam, &engine);
        let report = Registry::with_default_checkers().run(&cx);
        println!("\n== concurrency checkers ==");
        print!("{}", render_text(&module, &report));
    }

    if want_report {
        println!("\n{}", fsam.report(&module));
        let plan = fsam_query::plan_instrumentation(&module, &fsam, &engine);
        println!(
            "ThreadSanitizer plan: instrument {} accesses, skip {} ({:.0}% reduction)",
            plan.instrument.len(),
            plan.skip.len(),
            plan.reduction() * 100.0
        );
    }
    Ok(())
}
