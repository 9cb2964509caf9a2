//! Randomized multithreaded programs shared by the integration tests:
//! milled worker bodies, forked (optionally in loops) and joined fully,
//! partially or not at all.

use fsam_ir::rng::SmallRng;
use fsam_ir::Module;

/// A compact description of a random multithreaded program: a few worker
/// routines with milled bodies, forked (optionally in loops) and joined
/// (fully, partially or not at all) by main.
#[derive(Clone, Debug)]
pub struct ProgramShape {
    workers: usize,
    body: usize,
    fork_in_loop: bool,
    join_kind: u8, // 0 = full, 1 = partial, 2 = none
    pub use_locks: bool,
    seed: u64,
}

/// Deterministically samples a shape (formerly a proptest strategy).
pub fn sample_shape(rng: &mut SmallRng) -> ProgramShape {
    ProgramShape {
        workers: rng.gen_range(1usize..4),
        body: rng.gen_range(10usize..60),
        fork_in_loop: rng.gen_bool(0.5),
        join_kind: rng.gen_range(0u32..3) as u8,
        use_locks: rng.gen_bool(0.5),
        seed: rng.next_u64(),
    }
}

pub fn build_random_module(shape: &ProgramShape) -> Module {
    use fsam_ir::ModuleBuilder;
    use fsam_suite::mill::{mixed_body, Mill};

    let mut mb = ModuleBuilder::new();
    let g1 = mb.global("g1");
    let g2 = mb.global("g2");
    let arr = mb.global_array("buf");
    let lk = mb.global("lk");

    let mut worker_ids = Vec::new();
    for w in 0..shape.workers {
        let id = mb.declare_func(&format!("worker{w}"), &["arg"]);
        let mut f = mb.define_func(id);
        let local = f.local(&format!("scratch{w}"));
        let lptr = f.addr("l", lk);
        {
            let mut mill = Mill::new(
                &mut f,
                vec![g1, g2, arr],
                vec![local],
                shape.seed ^ (w as u64),
                "w",
            );
            if shape.use_locks {
                mill.locked_region(lptr, 4);
            }
            mixed_body(&mut mill, shape.body, shape.seed.wrapping_add(w as u64));
        }
        f.ret(None);
        f.finish();
        worker_ids.push(id);
    }

    let mut f = mb.func("main", &[]);
    let arg = f.addr("arg", g1);
    let mut handles = Vec::new();
    if shape.fork_in_loop {
        let header = f.block("h");
        let body = f.block("b");
        let exit = f.block("x");
        f.jump(header);
        f.switch_to(header);
        f.branch(body, exit);
        f.switch_to(body);
        for (w, &id) in worker_ids.iter().enumerate() {
            f.fork(&format!("t{w}"), id, Some(arg));
        }
        f.jump(header);
        f.switch_to(exit);
    } else {
        for (w, &id) in worker_ids.iter().enumerate() {
            handles.push(f.fork(&format!("t{w}"), id, Some(arg)));
        }
    }
    match shape.join_kind {
        0 => {
            for &h in &handles {
                f.join(h);
            }
        }
        1 => {
            if let Some(&h) = handles.first() {
                let do_join = f.block("dj");
                let skip = f.block("sk");
                let cont = f.block("ct");
                f.branch(do_join, skip);
                f.switch_to(do_join);
                f.join(h);
                f.jump(cont);
                f.switch_to(skip);
                f.jump(cont);
                f.switch_to(cont);
            }
        }
        _ => {}
    }
    {
        let mut mill = Mill::new(&mut f, vec![g1, g2], vec![], shape.seed ^ 0xFF, "m");
        mixed_body(&mut mill, shape.body / 2, shape.seed ^ 0xF0);
    }
    f.ret(None);
    f.finish();
    mb.build()
}
