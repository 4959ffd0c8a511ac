//! `bmp-benchmark`: see the library docs and `README.md`.

fn main() -> std::process::ExitCode {
    bmp_benchmark::harness::main()
}
