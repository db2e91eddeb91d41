//! Seeded argument fuzzing over `wcp_cli::run`: every offline command,
//! every one of its flags, and a fixed table of edge values.
//!
//! The contract is the one hostile input must meet everywhere: each
//! invocation returns `Ok` or a `CliError` with exit code 1 (runtime) or
//! 2 (usage), within a time budget. A panic, an abort or a hang fails.
//!
//! Two sweeps run over a 3-process trace. The first starts from a valid
//! invocation of each command and gives one slot (a flag or the trace
//! path) each edge value in turn, so every single-argument fault is tried.
//! The second draws seeded combinations of several slots at once.
//!
//! `serve`, `top`, `obs-report`, `fuzz`, `net-demo` and `multi-demo` are
//! left out: they dial peers, watch runs or run campaigns whose legal
//! sizes take long by design. A second test holds this table's flags
//! equal to the flags the parser lets each command take
//! (`wcp_cli::args::COMMANDS`).

use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use wcp_obs::rng::Rng;

/// Edge values every fuzzed slot takes (besides being absent).
const EDGE_VALUES: &[&str] = &[
    "",
    "x",
    "-1",
    "0",
    "1",
    "3",
    "4294967296",
    "18446744073709551615",
    "cs:0",
    "nb:0",
    "multi:0",
    "parallel:0",
];

/// Seeded multi-slot combinations drawn after the single-slot sweep.
const COMBINATIONS: usize = 300;

/// Longest any one invocation may take.
const CASE_BUDGET: Duration = Duration::from_secs(60);

/// The slot holding the trace path (the positional `FILE`).
const FILE: &str = "FILE";

/// One command: its name, a valid base invocation, the slots the fuzzer
/// varies, its output-path flags and its switches.
struct Command {
    name: &'static str,
    base: &'static [(&'static str, &'static str)],
    slots: &'static [&'static str],
    outputs: &'static [&'static str],
    switches: &'static [&'static str],
}

const COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        base: &[("processes", "3"), ("events", "3")],
        slots: &[
            "processes",
            "events",
            "seed",
            "density",
            "plant",
            "topology",
        ],
        outputs: &["o"],
        switches: &[],
    },
    Command {
        name: "info",
        base: &[],
        slots: &[FILE],
        outputs: &[],
        switches: &[],
    },
    Command {
        name: "detect",
        base: &[],
        slots: &[FILE, "scope", "algorithm"],
        outputs: &["slice"],
        switches: &["diagram", "json"],
    },
    Command {
        name: "trace",
        base: &[],
        slots: &[FILE, "scope", "algorithm", "capacity"],
        outputs: &["events"],
        switches: &["json"],
    },
    Command {
        name: "stats",
        base: &[],
        slots: &[FILE, "scope", "seed", "capacity"],
        outputs: &[],
        switches: &[],
    },
    Command {
        name: "gcp",
        base: &[],
        slots: &[FILE, "scope", "channel"],
        outputs: &[],
        switches: &["json"],
    },
    Command {
        name: "render",
        base: &[],
        slots: &[FILE, "scope"],
        outputs: &[],
        switches: &["dot"],
    },
    Command {
        name: "lattice",
        base: &[],
        slots: &[FILE, "scope", "max-states"],
        outputs: &[],
        switches: &[],
    },
    Command {
        name: "bound",
        base: &[("n", "3"), ("m", "3")],
        slots: &["n", "m"],
        outputs: &[],
        switches: &[],
    },
];

/// The commands [`COMMANDS`] leaves out.
const UNFUZZED: &[&str] = &[
    "serve",
    "top",
    "obs-report",
    "fuzz",
    "net-demo",
    "multi-demo",
];

/// Scratch directory for the fixture trace and every output file.
fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join("wcp-cli-arg-fuzz");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Writes the 3-process fixture trace and returns its path.
fn fixture() -> String {
    let path = scratch()
        .join("fixture.json")
        .to_string_lossy()
        .into_owned();
    let argv: Vec<String> = [
        "generate",
        "--processes",
        "3",
        "--events",
        "6",
        "--seed",
        "7",
        "--plant",
        "0.7",
        "-o",
        &path,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    wcp_cli::run(&argv).expect("fixture trace generates");
    path
}

/// The argv of `command` with `values` for its slots (`None` = absent),
/// the given outputs and switches set.
fn argv(
    command: &Command,
    values: &[Option<String>],
    outputs: &[bool],
    switches: &[bool],
) -> Vec<String> {
    let mut argv = vec![command.name.to_string()];
    for (slot, value) in command.slots.iter().zip(values) {
        match (*slot, value) {
            (_, None) => {}
            (FILE, Some(path)) => argv.push(path.clone()),
            (flag, Some(value)) => {
                argv.push(format!("--{flag}"));
                argv.push(value.clone());
            }
        }
    }
    for (flag, on) in command.outputs.iter().zip(outputs) {
        if *on {
            let path = scratch().join(format!("out-{}-{flag}", command.name));
            argv.push(format!("--{flag}"));
            argv.push(path.to_string_lossy().into_owned());
        }
    }
    for (switch, on) in command.switches.iter().zip(switches) {
        if *on {
            argv.push(format!("--{switch}"));
        }
    }
    argv
}

/// The valid value of every slot of `command`: its base flags and the
/// fixture trace; absent for optional flags.
fn base_values(command: &Command, trace: &str) -> Vec<Option<String>> {
    command
        .slots
        .iter()
        .map(|&slot| {
            if slot == FILE {
                return Some(trace.to_string());
            }
            command
                .base
                .iter()
                .find(|(flag, _)| *flag == slot)
                .map(|(_, value)| value.to_string())
        })
        .collect()
}

/// Runs one invocation on its own thread and checks the contract.
fn check(argv: Vec<String>) {
    let (tx, rx) = mpsc::channel();
    let shown = argv.join(" ");
    let case = std::thread::spawn(move || {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| wcp_cli::run(&argv)));
        let _ = tx.send(outcome);
    });
    let outcome = rx.recv_timeout(CASE_BUDGET);
    if outcome.is_ok() {
        case.join().expect("the case thread caught every panic");
    }
    match outcome {
        Ok(Ok(Ok(_))) => {}
        Ok(Ok(Err(e))) => assert!(
            e.code == 1 || e.code == 2,
            "`wcp {shown}` exited {}: {}",
            e.code,
            e.message
        ),
        Ok(Err(_)) => panic!("`wcp {shown}` panicked"),
        Err(_) => panic!("`wcp {shown}` ran past {CASE_BUDGET:?}"),
    }
}

#[test]
fn every_argument_yields_ok_or_an_exit_1_or_2_error() {
    let trace = fixture();
    let mut values: Vec<Option<String>> = vec![None];
    values.extend(EDGE_VALUES.iter().map(|v| Some(v.to_string())));

    // Single-slot sweep: a valid invocation with one slot varied.
    for command in COMMANDS {
        let outputs = vec![true; command.outputs.len()];
        let switches = vec![false; command.switches.len()];
        check(argv(
            command,
            &base_values(command, &trace),
            &outputs,
            &switches,
        ));
        for slot in 0..command.slots.len() {
            for value in &values {
                let mut case = base_values(command, &trace);
                case[slot] = value.clone();
                check(argv(command, &case, &outputs, &switches));
            }
        }
    }

    // Seeded combinations: every slot drawn from the table or the valid
    // base, outputs and switches on or off.
    let mut rng = Rng::seed_from_u64(0x5eed_a765);
    for _ in 0..COMBINATIONS {
        let command = &COMMANDS[rng.gen_range(0..COMMANDS.len())];
        let base = base_values(command, &trace);
        let case: Vec<Option<String>> = base
            .into_iter()
            .map(|valid| {
                if rng.gen_bool(0.5) {
                    valid
                } else {
                    values[rng.gen_range(0..values.len())].clone()
                }
            })
            .collect();
        let outputs: Vec<bool> = command.outputs.iter().map(|_| rng.gen_bool(0.8)).collect();
        let switches: Vec<bool> = command.switches.iter().map(|_| rng.gen_bool(0.5)).collect();
        check(argv(command, &case, &outputs, &switches));
    }
}

#[test]
fn the_fuzzed_flags_are_the_flags_each_command_takes() {
    fn sorted(mut flags: Vec<&str>) -> Vec<&str> {
        flags.sort_unstable();
        flags
    }
    for &(name, flags, switches) in wcp_cli::args::COMMANDS {
        let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
            assert!(UNFUZZED.contains(&name), "`{name}` is not fuzzed");
            continue;
        };
        let fuzzed = command
            .slots
            .iter()
            .chain(command.outputs)
            .copied()
            .filter(|&slot| slot != FILE)
            .collect();
        let takes = flags.split_whitespace().collect();
        assert_eq!(sorted(fuzzed), sorted(takes), "`{name}` flags");
        let fuzzed = command.switches.to_vec();
        let takes = switches.split_whitespace().collect();
        assert_eq!(sorted(fuzzed), sorted(takes), "`{name}` switches");
    }
    assert_eq!(
        COMMANDS.len() + UNFUZZED.len(),
        wcp_cli::args::COMMANDS.len()
    );
}
