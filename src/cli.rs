//! The `mispredict` command-line interface.
//!
//! A thin, dependency-free front end over the workspace:
//!
//! ```text
//! mispredict list
//! mispredict run --profile twolf --ops 200000 [--depth 20] [--predictor gshare] [--window 128]
//! mispredict gen --profile gcc --ops 1000000 --out gcc.bmpt
//! mispredict analyze --trace gcc.bmpt [--depth 20] ...
//! ```
//!
//! Parsing and execution are separated ([`parse`] / [`execute`]) and
//! `execute` writes to any `io::Write`, so the whole CLI is unit-testable
//! without spawning processes.

use std::io::Write;

use bmp_core::PenaltyModel;
use bmp_sim::Simulator;
use bmp_trace::Trace;
use bmp_uarch::{presets, MachineConfig, PredictorConfig};
use bmp_workloads::{spec, WorkloadProfile};

/// Errors surfaced to the CLI user.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// No subcommand or an unknown one.
    UnknownCommand(String),
    /// A flag was repeated, unknown, or missing its value.
    BadFlag(String),
    /// A flag value failed to parse.
    BadValue(&'static str, String),
    /// A required flag was missing.
    Missing(&'static str),
    /// The requested workload profile does not exist.
    UnknownProfile(String),
    /// The requested predictor name does not exist.
    UnknownPredictor(String),
    /// Building the machine configuration failed.
    Config(bmp_uarch::ConfigError),
    /// Reading or writing a trace file failed.
    TraceIo(bmp_trace::io::TraceIoError),
    /// Plain I/O failure (e.g. writing the report).
    Io(std::io::Error),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command {c:?}; try list, run, gen, or analyze")
            }
            CliError::BadFlag(flag) => write!(f, "unknown or malformed flag {flag:?}"),
            CliError::BadValue(what, v) => write!(f, "cannot parse {what} from {v:?}"),
            CliError::Missing(what) => write!(f, "missing required flag --{what}"),
            CliError::UnknownProfile(p) => write!(
                f,
                "unknown profile {p:?}; run `mispredict list` for the available ones"
            ),
            CliError::UnknownPredictor(p) => write!(
                f,
                "unknown predictor {p:?}; expected one of bimodal, gshare, local, \
                 tournament, perceptron, tage, perfect, taken, not-taken"
            ),
            CliError::Config(e) => write!(f, "invalid machine configuration: {e}"),
            CliError::TraceIo(e) => write!(f, "trace file error: {e}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<bmp_uarch::ConfigError> for CliError {
    fn from(e: bmp_uarch::ConfigError) -> Self {
        CliError::Config(e)
    }
}

impl From<bmp_trace::io::TraceIoError> for CliError {
    fn from(e: bmp_trace::io::TraceIoError) -> Self {
        CliError::TraceIo(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Machine-configuration overrides shared by `run` and `analyze`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineArgs {
    /// `--depth N`: frontend pipeline depth.
    pub depth: Option<u32>,
    /// `--predictor NAME`.
    pub predictor: Option<String>,
    /// `--window N`: issue-window size (ROB scales to 2×).
    pub window: Option<u32>,
    /// `--width N`: all pipeline widths.
    pub width: Option<u32>,
}

impl MachineArgs {
    /// Builds the machine from the baseline plus the overrides.
    pub fn build(&self) -> Result<MachineConfig, CliError> {
        let mut b = presets::baseline_4wide().to_builder();
        if let Some(d) = self.depth {
            b.frontend_depth(d);
        }
        if let Some(w) = self.window {
            b.window_size(w).rob_size(w * 2);
        }
        if let Some(w) = self.width {
            b.width(w);
        }
        if let Some(p) = &self.predictor {
            b.predictor(parse_predictor(p)?);
        }
        Ok(b.build()?)
    }
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `mispredict list`
    List,
    /// `mispredict run --profile P [--ops N] [--seed S] [--markdown]
    /// [machine flags]`
    Run {
        /// Workload profile name.
        profile: String,
        /// Trace length.
        ops: usize,
        /// Synthesis seed.
        seed: u64,
        /// Machine overrides.
        machine: MachineArgs,
        /// Emit the full markdown report instead of the plain summary.
        markdown: bool,
        /// Instructions of warmup before statistics count.
        warmup: u64,
    },
    /// `mispredict gen --profile P --out FILE [--ops N] [--seed S]`
    Gen {
        /// Workload profile name.
        profile: String,
        /// Trace length.
        ops: usize,
        /// Synthesis seed.
        seed: u64,
        /// Output path.
        out: String,
    },
    /// `mispredict analyze --trace FILE [--markdown] [machine flags]`
    Analyze {
        /// Input trace path.
        trace: String,
        /// Machine overrides.
        machine: MachineArgs,
        /// Emit the full markdown report instead of the plain summary.
        markdown: bool,
    },
}

/// A predictor by CLI name: the four named generations take their
/// geometry from [`presets::generation_predictor`], so a `--predictor
/// tage` run matches the generation sweep's machine.
fn parse_predictor(name: &str) -> Result<PredictorConfig, CliError> {
    if let Some(p) = presets::generation_predictor(name) {
        return Ok(p);
    }
    Ok(match name {
        "local" => PredictorConfig::Local {
            history_entries: 1024,
            history_bits: 10,
            pattern_entries: 1024,
        },
        "tournament" => PredictorConfig::Tournament {
            entries: 4096,
            history_bits: 12,
        },
        "perfect" => PredictorConfig::Perfect,
        "taken" => PredictorConfig::AlwaysTaken,
        "not-taken" => PredictorConfig::AlwaysNotTaken,
        other => return Err(CliError::UnknownPredictor(other.to_owned())),
    })
}

struct Flags<'a> {
    args: &'a [String],
    i: usize,
}

impl<'a> Flags<'a> {
    fn next_flag(&mut self) -> Option<&'a str> {
        let f = self.args.get(self.i)?;
        self.i += 1;
        Some(f)
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, CliError> {
        let v = self
            .args
            .get(self.i)
            .ok_or_else(|| CliError::BadFlag(flag.to_owned()))?;
        self.i += 1;
        Ok(v)
    }
}

fn parse_num<T: std::str::FromStr>(what: &'static str, v: &str) -> Result<T, CliError> {
    v.parse()
        .map_err(|_| CliError::BadValue(what, v.to_owned()))
}

/// Parses a command line (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] describing the first problem found.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some(cmd) = args.first() else {
        return Err(CliError::UnknownCommand(String::new()));
    };
    let mut flags = Flags { args, i: 1 };
    match cmd.as_str() {
        "list" => Ok(Command::List),
        "run" => {
            let mut profile = None;
            let mut ops = 200_000usize;
            let mut seed = 42u64;
            let mut machine = MachineArgs::default();
            let mut markdown = false;
            let mut warmup = 0u64;
            while let Some(f) = flags.next_flag() {
                match f {
                    "--profile" => profile = Some(flags.value(f)?.to_owned()),
                    "--ops" => ops = parse_num("ops", flags.value(f)?)?,
                    "--seed" => seed = parse_num("seed", flags.value(f)?)?,
                    "--warmup" => warmup = parse_num("warmup", flags.value(f)?)?,
                    "--markdown" => markdown = true,
                    _ => parse_machine_flag(f, &mut flags, &mut machine)?,
                }
            }
            Ok(Command::Run {
                profile: profile.ok_or(CliError::Missing("profile"))?,
                ops,
                seed,
                machine,
                markdown,
                warmup,
            })
        }
        "gen" => {
            let mut profile = None;
            let mut out = None;
            let mut ops = 200_000usize;
            let mut seed = 42u64;
            while let Some(f) = flags.next_flag() {
                match f {
                    "--profile" => profile = Some(flags.value(f)?.to_owned()),
                    "--out" => out = Some(flags.value(f)?.to_owned()),
                    "--ops" => ops = parse_num("ops", flags.value(f)?)?,
                    "--seed" => seed = parse_num("seed", flags.value(f)?)?,
                    other => return Err(CliError::BadFlag(other.to_owned())),
                }
            }
            Ok(Command::Gen {
                profile: profile.ok_or(CliError::Missing("profile"))?,
                ops,
                seed,
                out: out.ok_or(CliError::Missing("out"))?,
            })
        }
        "analyze" => {
            let mut trace = None;
            let mut machine = MachineArgs::default();
            let mut markdown = false;
            while let Some(f) = flags.next_flag() {
                match f {
                    "--trace" => trace = Some(flags.value(f)?.to_owned()),
                    "--markdown" => markdown = true,
                    _ => parse_machine_flag(f, &mut flags, &mut machine)?,
                }
            }
            Ok(Command::Analyze {
                trace: trace.ok_or(CliError::Missing("trace"))?,
                machine,
                markdown,
            })
        }
        other => Err(CliError::UnknownCommand(other.to_owned())),
    }
}

fn parse_machine_flag(
    flag: &str,
    flags: &mut Flags<'_>,
    machine: &mut MachineArgs,
) -> Result<(), CliError> {
    match flag {
        "--depth" => machine.depth = Some(parse_num("depth", flags.value(flag)?)?),
        "--window" => machine.window = Some(parse_num("window", flags.value(flag)?)?),
        "--width" => machine.width = Some(parse_num("width", flags.value(flag)?)?),
        "--predictor" => machine.predictor = Some(flags.value(flag)?.to_owned()),
        other => return Err(CliError::BadFlag(other.to_owned())),
    }
    Ok(())
}

fn lookup_profile(name: &str) -> Result<WorkloadProfile, CliError> {
    spec::by_name(name).ok_or_else(|| CliError::UnknownProfile(name.to_owned()))
}

/// Runs a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Returns a [`CliError`] on any failure; nothing is printed to stderr.
pub fn execute(cmd: &Command, out: &mut dyn Write) -> Result<(), CliError> {
    match cmd {
        Command::List => {
            writeln!(out, "available workload profiles:")?;
            for p in spec::all_profiles() {
                writeln!(
                    out,
                    "  {:<8}  code {:>4} KiB  block {:>4.1}  hot {:>3} KiB",
                    p.name,
                    p.branches.code_footprint / 1024,
                    p.branches.avg_block_size,
                    p.memory.hot_bytes / 1024,
                )?;
            }
            Ok(())
        }
        Command::Run {
            profile,
            ops,
            seed,
            machine,
            markdown,
            warmup,
        } => {
            let cfg = machine.build()?;
            let trace = lookup_profile(profile)?.generate(*ops, *seed);
            if *markdown {
                markdown_report(&trace, &cfg, profile, *warmup, out)
            } else {
                report(&trace, &cfg, profile, *warmup, out)
            }
        }
        Command::Gen {
            profile,
            ops,
            seed,
            out: path,
        } => {
            let trace = lookup_profile(profile)?.generate(*ops, *seed);
            let file = std::fs::File::create(path)?;
            bmp_trace::io::write_trace(&trace, std::io::BufWriter::new(file))?;
            writeln!(out, "wrote {} instructions to {path}", trace.len())?;
            Ok(())
        }
        Command::Analyze {
            trace: path,
            machine,
            markdown,
        } => {
            let cfg = machine.build()?;
            let file = std::fs::File::open(path)?;
            let trace = bmp_trace::io::read_trace(std::io::BufReader::new(file))?;
            if *markdown {
                markdown_report(&trace, &cfg, path, 0, out)
            } else {
                report(&trace, &cfg, path, 0, out)
            }
        }
    }
}

/// Simulates `trace`, excluding the first `warmup` instructions from
/// the statistics.
fn simulate(trace: &Trace, cfg: &MachineConfig, warmup: u64) -> bmp_sim::SimResult {
    let opts = bmp_sim::SimOptions {
        warmup_ops: warmup,
        ..bmp_sim::SimOptions::default()
    };
    Simulator::with_options(cfg.clone(), opts).run(trace)
}

/// The full markdown report: simulate (after `warmup` instructions),
/// analyze, render via `bmp_core::report`.
fn markdown_report(
    trace: &Trace,
    cfg: &MachineConfig,
    label: &str,
    warmup: u64,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let res = simulate(trace, cfg, warmup);
    let analysis = PenaltyModel::new(cfg.clone()).analyze(trace);
    let stack = bmp_core::cpi::predict(trace, cfg);
    let measured = bmp_core::report::MeasuredSummary {
        cpi: res.cpi(),
        mean_penalty: res.mean_penalty(),
        mispredictions: res.mispredicts.len() as u64,
    };
    let md = bmp_core::report::render(label, &analysis, Some(&stack), Some(&measured));
    out.write_all(md.as_bytes())?;
    Ok(())
}

/// The shared run/analyze report: simulation, model, decomposition.
/// The first `warmup` instructions are excluded from the simulator's
/// statistics (the model's analysis remains whole-trace).
fn report(
    trace: &Trace,
    cfg: &MachineConfig,
    label: &str,
    warmup: u64,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let res = simulate(trace, cfg, warmup);
    let analysis = PenaltyModel::new(cfg.clone()).analyze(trace);

    writeln!(out, "workload   : {label} ({} instructions)", trace.len())?;
    writeln!(
        out,
        "machine    : {}-wide, depth {}, window {}, {}",
        cfg.dispatch_width, cfg.frontend_depth, cfg.window_size, cfg.predictor
    )?;
    writeln!(out)?;
    writeln!(out, "-- measured (cycle-level simulation) --")?;
    writeln!(out, "cycles               {:>12}", res.cycles)?;
    writeln!(out, "IPC                  {:>12.3}", res.ipc())?;
    writeln!(
        out,
        "branch miss rate     {:>11.2}%  ({} mispredictions)",
        res.branch_stats.miss_rate() * 100.0,
        res.branch_stats.mispredictions()
    )?;
    writeln!(
        out,
        "mean penalty         {:>12.1}  (frontend depth alone: {})",
        res.mean_penalty().unwrap_or(0.0),
        cfg.frontend_depth
    )?;
    let s = res.slots;
    writeln!(
        out,
        "dispatch slots       {:>11.1}% used ({:.1}% frontend, {:.1}% rob, {:.1}% window)",
        s.utilization() * 100.0,
        s.frontend_starved as f64 / s.total().max(1) as f64 * 100.0,
        s.rob_full as f64 / s.total().max(1) as f64 * 100.0,
        s.window_full as f64 / s.total().max(1) as f64 * 100.0,
    )?;
    writeln!(out)?;
    writeln!(out, "-- modeled (interval analysis) --")?;
    writeln!(
        out,
        "mean penalty         {:>12.1}",
        analysis.mean_penalty().unwrap_or(0.0)
    )?;
    if let Some((base, ilp, fu, dmiss)) = analysis.mean_contributions() {
        let n = analysis.breakdowns.len() as f64;
        let carry: f64 = analysis
            .breakdowns
            .iter()
            .map(|b| b.carryover as f64)
            .sum::<f64>()
            / n;
        writeln!(
            out,
            "  frontend (i)       {:>12.1}",
            f64::from(cfg.frontend_depth)
        )?;
        writeln!(out, "  base execution     {base:>12.1}")?;
        writeln!(out, "  inherent ILP (iii) {ilp:>12.1}")?;
        writeln!(out, "  FU latency (iv)    {fu:>12.1}")?;
        writeln!(out, "  short D-miss (v)   {dmiss:>12.1}")?;
        writeln!(out, "  window state (ii)  {carry:>12.1}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_list() {
        assert_eq!(parse(&argv("list")).unwrap(), Command::List);
    }

    #[test]
    fn parses_run_with_defaults_and_overrides() {
        let cmd = parse(&argv(
            "run --profile twolf --ops 1000 --seed 7 --depth 20 --predictor gshare --window 128",
        ))
        .unwrap();
        match cmd {
            Command::Run {
                profile,
                ops,
                seed,
                machine,
                markdown,
                warmup,
            } => {
                assert!(!markdown);
                assert_eq!(warmup, 0);
                assert_eq!(profile, "twolf");
                assert_eq!(ops, 1000);
                assert_eq!(seed, 7);
                assert_eq!(machine.depth, Some(20));
                assert_eq!(machine.window, Some(128));
                assert_eq!(machine.predictor.as_deref(), Some("gshare"));
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn run_requires_profile() {
        assert!(matches!(
            parse(&argv("run --ops 100")),
            Err(CliError::Missing("profile"))
        ));
    }

    #[test]
    fn rejects_unknown_command_and_flags() {
        assert!(matches!(
            parse(&argv("frobnicate")),
            Err(CliError::UnknownCommand(_))
        ));
        assert!(matches!(
            parse(&argv("run --profile x --bogus 3")),
            Err(CliError::BadFlag(_))
        ));
        assert!(matches!(
            parse(&argv("run --profile x --ops notanumber")),
            Err(CliError::BadValue("ops", _))
        ));
    }

    #[test]
    fn machine_args_build() {
        let m = MachineArgs {
            depth: Some(12),
            predictor: Some("perceptron".into()),
            window: Some(128),
            width: Some(8),
        };
        let cfg = m.build().unwrap();
        assert_eq!(cfg.frontend_depth, 12);
        assert_eq!(cfg.window_size, 128);
        assert_eq!(cfg.rob_size, 256);
        assert_eq!(cfg.dispatch_width, 8);
        assert_eq!(cfg.predictor.name(), "perceptron");
    }

    #[test]
    fn tage_predictor_parses_to_the_generation_config() {
        let m = MachineArgs {
            predictor: Some("tage".into()),
            ..MachineArgs::default()
        };
        let cfg = m.build().unwrap();
        assert_eq!(cfg.predictor.name(), "tage");
        assert_eq!(
            cfg.predictor,
            bmp_uarch::presets::generation_predictor("tage").unwrap()
        );
    }

    #[test]
    fn bad_predictor_name_errors() {
        let m = MachineArgs {
            predictor: Some("psychic".into()),
            ..MachineArgs::default()
        };
        assert!(matches!(m.build(), Err(CliError::UnknownPredictor(_))));
    }

    #[test]
    fn list_executes() {
        let mut buf = Vec::new();
        execute(&Command::List, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("twolf"));
        assert!(s.contains("mcf"));
    }

    #[test]
    fn run_executes_end_to_end() {
        let cmd = parse(&argv("run --profile gzip --ops 5000 --seed 3")).unwrap();
        let mut buf = Vec::new();
        execute(&cmd, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("IPC"));
        assert!(s.contains("mean penalty"));
        assert!(s.contains("window state (ii)"));
    }

    #[test]
    fn gen_then_analyze_roundtrip() {
        let dir = std::env::temp_dir().join("mispredict-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.bmpt");
        let path_s = path.to_str().unwrap().to_owned();

        let gen = Command::Gen {
            profile: "gzip".into(),
            ops: 3_000,
            seed: 1,
            out: path_s.clone(),
        };
        let mut buf = Vec::new();
        execute(&gen, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("wrote 3000"));

        let analyze = Command::Analyze {
            trace: path_s,
            machine: MachineArgs::default(),
            markdown: false,
        };
        let mut buf = Vec::new();
        execute(&analyze, &mut buf).unwrap();
        assert!(String::from_utf8(buf)
            .unwrap()
            .contains("3000 instructions"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_profile_reported() {
        let cmd = Command::Run {
            profile: "spectre".into(),
            ops: 10,
            seed: 1,
            machine: MachineArgs::default(),
            markdown: false,
            warmup: 0,
        };
        let mut buf = Vec::new();
        assert!(matches!(
            execute(&cmd, &mut buf),
            Err(CliError::UnknownProfile(_))
        ));
    }

    #[test]
    fn warmup_flag_parses_and_runs() {
        let cmd = parse(&argv("run --profile gzip --ops 6000 --warmup 2000")).unwrap();
        match &cmd {
            Command::Run { warmup, .. } => assert_eq!(*warmup, 2000),
            other => panic!("wrong command {other:?}"),
        }
        let mut buf = Vec::new();
        execute(&cmd, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        // Post-warmup instruction count is reported.
        assert!(s.contains("IPC"));
    }

    #[test]
    fn markdown_flag_produces_report() {
        let cmd = parse(&argv("run --profile gzip --ops 4000 --seed 3 --markdown")).unwrap();
        let mut buf = Vec::new();
        execute(&cmd, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("# Misprediction-penalty report: gzip"));
        assert!(s.contains("## CPI stack"));

        // `--warmup` reaches the markdown report's simulation.
        let measured = |args: &str| {
            let mut buf = Vec::new();
            execute(&parse(&argv(args)).unwrap(), &mut buf).unwrap();
            let md = String::from_utf8(buf).unwrap();
            let line = md.lines().find(|l| l.contains("mispredictions (measured)"));
            line.expect("a measured line").to_owned()
        };
        let cold = measured("run --profile gzip --ops 4000 --seed 3 --markdown");
        let warm = measured("run --profile gzip --ops 4000 --seed 3 --markdown --warmup 2000");
        assert_ne!(cold, warm);
    }

    #[test]
    fn error_messages_are_helpful() {
        assert!(CliError::Missing("profile")
            .to_string()
            .contains("--profile"));
        assert!(CliError::UnknownPredictor("x".into())
            .to_string()
            .contains("tournament"));
    }
}
