//! The benchmark's binary: the driver's `bench`, every untraced trial, and
//! the tools. See `dos_benchmark::cli`.

fn main() {
    let process_start = std::time::Instant::now();
    std::process::exit(dos_benchmark::cli::main(process_start));
}
