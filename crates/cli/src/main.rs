//! The `blockrep` binary. See [`blockrep_cli::commands::USAGE`].

fn main() {
    let parsed = match blockrep_cli::args::Parsed::parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("blockrep: {e}");
            eprintln!("{}", blockrep_cli::commands::USAGE);
            std::process::exit(2);
        }
    };
    if let Err(failure) = blockrep_cli::commands::run(&parsed) {
        eprintln!("blockrep: {failure}");
        if let blockrep_cli::commands::Failure::Usage(_) = failure {
            eprintln!("{}", blockrep_cli::commands::USAGE);
        }
        std::process::exit(failure.exit_code());
    }
}
