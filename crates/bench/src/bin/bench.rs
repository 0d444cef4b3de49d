//! `bench <id>… | all [--system tardis|bulldozer64] [--quick]`: run the
//! registered experiments (`bench --help` lists them). See
//! `hchol_bench::driver`.

fn main() -> std::process::ExitCode {
    hchol_bench::driver::main()
}
