//! The benchmark's measuring program. `run.py` builds it and runs one
//! subcommand per fresh process; each prints one JSON line on stdout and
//! exits 0 when every check passed, 1 when a check failed, 2 on error.
//!
//! ```text
//! perfbench render [--cache DIR] [--check] [--metrics]
//! perfbench regen-layers --filled DIR --scratch DIR
//! perfbench serve|serve-layers --seed N --seconds S --scratch DIR
//! perfbench serve-setup --scratch DIR
//! ```

mod refs;
mod regen;
mod serve;
mod util;

use mic_eval::config::{MetricsMode, ObsMode, SuiteConfig};
use std::path::PathBuf;

struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0.iter().position(|a| a == flag).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn flag(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn num(&self, flag: &str, default: f64) -> Result<f64, String> {
        self.value(flag).map_or(Ok(default), |v| v.parse().map_err(|_| format!("{flag}: not a number: {v}")))
    }

    fn path(&self, flag: &str) -> Result<PathBuf, String> {
        self.value(flag).map(PathBuf::from).ok_or_else(|| format!("{flag} is required"))
    }
}

fn install(cache: Option<PathBuf>, metrics: bool, obs: Option<PathBuf>) {
    SuiteConfig::from_env()
        .cache_dir(cache)
        .metrics(if metrics { MetricsMode::On } else { MetricsMode::Off })
        .obs(obs.map_or(ObsMode::Off, ObsMode::OnWithDir))
        .install();
    mic_metrics::set_enabled(metrics);
}

fn run(cmd: &str, a: &Args) -> Result<(mic_eval::json::Value, bool), String> {
    match cmd {
        "render" => {
            install(a.value("--cache").map(PathBuf::from), a.flag("--metrics"), None);
            Ok(regen::render_cmd(a.flag("--check")))
        }
        "regen-layers" => {
            let scratch = a.path("--scratch")?;
            std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
            // A cache directory under a regular file: reads miss, writes fail.
            let blocker = scratch.join("not-a-directory");
            std::fs::write(&blocker, b"").map_err(|e| e.to_string())?;
            install(Some(blocker.join("cache")), true, None);
            regen::layers_cmd(&a.path("--filled")?, &scratch)
        }
        "serve" | "serve-setup" | "serve-layers" => {
            let scratch = a.path("--scratch")?;
            let sa = serve::ServeArgs {
                seed: a.num("--seed", 1.0)? as u64,
                seconds: a.num("--seconds", 10.0)?,
                scratch: &scratch,
            };
            let traced = cmd == "serve-layers";
            install(None, true, traced.then(|| scratch.join("obs")));
            match cmd {
                "serve" => serve::serve_cmd(&sa),
                "serve-setup" => serve::setup_cmd(&sa).map(|v| (v, true)),
                _ => serve::layers_cmd(&sa),
            }
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        eprintln!("usage: perfbench <render|regen-layers|serve|serve-setup|serve-layers> [flags]");
        std::process::exit(2);
    };
    match run(&cmd, &Args(argv)) {
        Ok((v, ok)) => {
            println!("{}", v.render());
            std::process::exit(if ok { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench {cmd}: {e}");
            std::process::exit(2);
        }
    }
}
