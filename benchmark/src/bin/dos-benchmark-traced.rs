//! The traced sibling: `dos-benchmark` with a counting global allocator and
//! nothing else changed. Only the per-layer pass runs in it.

#[global_allocator]
static COUNTING: dos_benchmark::alloc::Counting = dos_benchmark::alloc::Counting;

fn main() {
    let process_start = std::time::Instant::now();
    std::process::exit(dos_benchmark::cli::main(process_start));
}
