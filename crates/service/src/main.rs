//! The solve daemon binary. See the crate docs for the endpoint
//! surface; `--help` prints the flags.

use std::sync::Arc;
use std::time::Duration;

use fair_submod_service::{EventConfig, EventServer, InstanceConfig, QuotaConfig, ServiceState};

const USAGE: &str = "\
fair-submod-service: long-running BSM solve daemon (HTTP/1.1 + JSON)

USAGE:
    fair-submod-service [--addr HOST:PORT] [--capacity N] [--quick]
                        [--max-instance-bytes N]
                        [--rr-sets N] [--mc-runs N] [--pokec-nodes N]
                        [--workers N] [--queue-capacity N]
                        [--max-connections N] [--idle-timeout-secs N]
                        [--read-timeout-secs N] [--max-pipeline N]
                        [--tenant-rate R] [--tenant-burst B]
                        [--tenant-max-instances N] [--tenant-max-sessions N]

INSTANCE FLAGS:
    --addr HOST:PORT   bind address (default 127.0.0.1:7878; port 0 = ephemeral)
    --capacity N       max cached instances before LRU eviction (default 8)
    --max-instance-bytes N
                       byte budget over the cached instances' advisory
                       footprints; LRU entries are evicted past it
                       (default: unlimited)
    --quick            smoke-sized instance knobs (harness --quick caps)
    --rr-sets N        RR sets for influence oracles
    --mc-runs N        Monte-Carlo runs per influence evaluation
    --pokec-nodes N    node count of the Pokec stand-in

SERVER FLAGS (event-driven readiness loop):
    --workers N             handler threads (default: auto, at least 2)
    --queue-capacity N      admission high-water mark; past it solve
                            requests draw 503 + Retry-After (default 256)
    --max-connections N     open-connection cap (default 4096)
    --idle-timeout-secs N   reap idle keep-alive connections (default 30)
    --read-timeout-secs N   slowloris guard: a request head must finish
                            within N seconds (default 30)
    --max-pipeline N        pipelined requests in flight per connection
                            before reads pause (default 32)

TENANT QUOTAS (keyed by the X-Tenant request header; default off):
    --tenant-rate R           solve admissions/second per tenant (429 past it)
    --tenant-burst B          token-bucket burst size (default: same as rate)
    --tenant-max-instances N  instance-store slots one tenant may hold
    --tenant-max-sessions N   parked anytime sessions one tenant may hold

SIGNALS: SIGINT/SIGTERM drain in-flight requests, then exit.
";

fn main() {
    let mut addr = String::from("127.0.0.1:7878");
    let mut capacity = 8usize;
    let mut max_instance_bytes = usize::MAX;
    let mut quick = false;
    let mut cfg = InstanceConfig::default();
    let mut event = EventConfig::default();
    let mut quotas = QuotaConfig::unlimited();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        fn int(flag: &str, raw: String) -> usize {
            raw.parse()
                .unwrap_or_else(|_| panic!("{flag} takes an integer"))
        }
        fn num(flag: &str, raw: String) -> f64 {
            raw.parse()
                .unwrap_or_else(|_| panic!("{flag} takes a number"))
        }
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--capacity" => capacity = int("--capacity", value("--capacity")),
            "--max-instance-bytes" => {
                max_instance_bytes = int("--max-instance-bytes", value("--max-instance-bytes"))
            }
            "--quick" => quick = true,
            "--rr-sets" => cfg.rr_sets = int("--rr-sets", value("--rr-sets")),
            "--mc-runs" => cfg.mc_runs = int("--mc-runs", value("--mc-runs")),
            "--pokec-nodes" => cfg.pokec_nodes = int("--pokec-nodes", value("--pokec-nodes")),
            "--workers" => event.worker_threads = int("--workers", value("--workers")),
            "--queue-capacity" => {
                event.queue_capacity = int("--queue-capacity", value("--queue-capacity"))
            }
            "--max-connections" => {
                event.max_connections = int("--max-connections", value("--max-connections"))
            }
            "--idle-timeout-secs" => {
                event.idle_timeout = Duration::from_secs(int(
                    "--idle-timeout-secs",
                    value("--idle-timeout-secs"),
                ) as u64)
            }
            "--read-timeout-secs" => {
                event.read_timeout = Duration::from_secs(int(
                    "--read-timeout-secs",
                    value("--read-timeout-secs"),
                ) as u64)
            }
            "--max-pipeline" => event.max_pipeline = int("--max-pipeline", value("--max-pipeline")),
            "--tenant-rate" => {
                quotas.solve_rate = num("--tenant-rate", value("--tenant-rate"));
                if quotas.solve_burst.is_infinite() {
                    quotas.solve_burst = quotas.solve_rate.max(1.0);
                }
            }
            "--tenant-burst" => quotas.solve_burst = num("--tenant-burst", value("--tenant-burst")),
            "--tenant-max-instances" => {
                quotas.max_instances =
                    int("--tenant-max-instances", value("--tenant-max-instances"))
            }
            "--tenant-max-sessions" => {
                quotas.max_sessions = int("--tenant-max-sessions", value("--tenant-max-sessions"))
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            other => {
                eprintln!("unknown flag {other}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if quick {
        cfg = cfg.quick();
    }

    let state = Arc::new(
        ServiceState::new(capacity, cfg)
            .with_instance_byte_budget(max_instance_bytes)
            .with_quotas(quotas.clone()),
    );
    eprintln!(
        "[service] {} solvers registered, instance capacity {capacity}, tenant quotas {}",
        state.registry.len(),
        if quotas.is_limiting() { "on" } else { "off" },
    );

    let result = EventServer::bind(&addr, event).and_then(|server| {
        // SIGINT/SIGTERM write a byte to the shutdown pipe; the loop
        // drains in-flight work and returns.
        match server.shutdown_handle() {
            Ok(handle) => {
                polling::signals::notify_on_terminate(handle.notify_fd());
                // Leak the handle: the signal handler's target fd must
                // stay open for the process lifetime.
                std::mem::forget(handle);
            }
            Err(e) => eprintln!("[service] no signal handling: {e}"),
        }
        // The loadgen --spawn handshake parses this exact stdout line.
        println!("fair-submod-service listening on {}", server.local_addr()?);
        let _ = std::io::Write::flush(&mut std::io::stdout());
        server.run(Arc::new(move |req: &_| state.handle(req)))
    });
    match result {
        Ok(()) => eprintln!("[service] drained, exiting"),
        Err(e) => {
            eprintln!("[service] fatal: {e}");
            std::process::exit(1);
        }
    }
}
