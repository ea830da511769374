//! `conch-benchmark` — see `conch_benchmark::cli` for the commands.

use std::process::ExitCode;

/// Counts only while the traced run switches it on.
#[global_allocator]
static ALLOC: conch_benchmark::alloc::Counting = conch_benchmark::alloc::Counting;

/// Pins glibc malloc's mmap threshold at its initial 128 KiB.
///
/// Left alone, the threshold is dynamic: freeing a large mmapped block
/// raises it, after which blocks of that size come from the brk heap
/// and stay resident once freed. Which block is freed first depends on
/// where the seed placed a few connections, and `peak_rss_mib` then
/// read 9.5 MiB or 14 MiB for one and the same 7.2 MiB of peak live
/// memory. With the threshold fixed, large vectors are always mapped
/// and unmapped, and peak RSS follows what the program holds.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_policy() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` is glibc's documented tuning call; it takes two
    // plain integers, touches no memory of ours, and runs here before
    // any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_policy() {}

fn main() -> ExitCode {
    pin_malloc_policy();
    let args: Vec<String> = std::env::args().skip(1).collect();
    conch_benchmark::cli::main(&args)
}
