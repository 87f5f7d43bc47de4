//! Host cost of one simulated warp access.
//!
//! Launches a one-block kernel on the Tesla C2050 model that issues the
//! same pre-built warp accesses through `BlockCtx` many times, and prints
//! the best of five launches in host nanoseconds per access. These are
//! the numbers behind DESIGN.md's per-access cost table; timings move with
//! the host, so compare runs made on the same machine.
//!
//! ```text
//! cargo run --release --offline -p gpu-sim --example access_cost
//! ```

use gpu_sim::{
    BlockCtx, BlockKernel, DeviceSpec, GpuDevice, GpuError, LaunchConfig, TexRef, WarpAccess,
};
use std::hint::black_box;
use std::time::Instant;

const ITERS: usize = 200_000;

#[derive(Clone, Copy)]
enum Kind {
    Shared,
    Texture,
    Global,
}

/// Issues `accesses` round-robin, `ITERS` times in one block.
struct Repeat {
    kind: Kind,
    accesses: Vec<WarpAccess>,
    tex: TexRef,
}

impl BlockKernel for Repeat {
    fn config(&self) -> LaunchConfig {
        LaunchConfig {
            threads_per_block: 32,
            regs_per_thread: 8,
            shared_words: 2048,
        }
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_>) -> Result<(), GpuError> {
        let mut sum = 0u32;
        for access in self.accesses.iter().cycle().take(ITERS) {
            let access = black_box(access);
            let values = match self.kind {
                Kind::Shared => ctx.shared_load(access),
                Kind::Texture => ctx.tex_load(self.tex, access)?,
                Kind::Global => ctx.global_load(access)?,
            };
            sum = sum.wrapping_add(values[0]);
        }
        black_box(sum);
        Ok(())
    }
}

fn main() -> Result<(), GpuError> {
    let mut dev = GpuDevice::new(DeviceSpec::tesla_c2050());
    let buf = dev.alloc(4096)?;
    let tex = dev.bind_texture(buf, 4096);
    let base = buf.addr();
    let each = |f: &dyn Fn(usize) -> WarpAccess| (0..64).map(f).collect::<Vec<_>>();
    let cases = [
        (
            "shared, 6 lanes contiguous",
            Kind::Shared,
            each(&|i| WarpAccess::from_lanes((0..6).map(|l| (l, i * 8 + l)))),
        ),
        (
            "shared, 32 lanes contiguous",
            Kind::Shared,
            each(&|i| WarpAccess::contiguous(i * 8)),
        ),
        (
            "shared, 32 lanes stride 2 (2-way conflict)",
            Kind::Shared,
            each(&|i| WarpAccess::from_lanes((0..32).map(|l| (l, i + 2 * l)))),
        ),
        (
            "texture, 6 lanes in 6 segments",
            Kind::Texture,
            each(&|i| {
                WarpAccess::from_lanes((0..6).map(|l| (l, base + ((i * 7 + l * 13) * 37) % 600)))
            }),
        ),
        (
            "texture, 32 lanes contiguous",
            Kind::Texture,
            each(&|i| WarpAccess::contiguous(base + i * 32)),
        ),
        (
            "global, 1 lane",
            Kind::Global,
            each(&|i| WarpAccess::from_lanes([(0, base + i * 32)])),
        ),
        (
            "global, 32 lanes coalesced",
            Kind::Global,
            each(&|i| WarpAccess::contiguous(base + i * 32)),
        ),
    ];
    println!("{:<44} host ns/access", "access");
    for (name, kind, accesses) in cases {
        let kernel = Repeat {
            kind,
            accesses,
            tex,
        };
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let start = Instant::now();
            dev.launch(&kernel, 1, "access_cost")?;
            best = best.min(start.elapsed().as_secs_f64() * 1e9 / ITERS as f64);
        }
        println!("{name:<44} {best:.1}");
    }
    Ok(())
}
