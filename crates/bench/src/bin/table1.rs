//! Regenerates **Table 1** of the paper: the 13-ontology benchmark of
//! Slider vs the batch baseline (OWLIM-SE stand-in), on ρdf and RDFS.
//!
//! ```text
//! cargo run --release -p slider-bench --bin table1 -- [--scale F] [--full] [--csv PATH] [--json PATH]
//! ```
//!
//! * `--scale F` scales the large ontologies' sizes (chains always run at
//!   paper size). Default 0.1, or the `SLIDER_SCALE` env var.
//! * `--full` = `--scale 1.0` (paper sizes; BSBM_5M needs several GB and
//!   minutes per engine).
//! * `--csv PATH` additionally writes the raw measurements as CSV.
//! * `--json PATH` additionally writes the `slider_bench::report`
//!   trajectory: one cell per ontology × fragment.

use slider_bench::{env_scale, render_csv, render_report, render_table, table1_row};
use slider_core::SliderConfig;
use slider_workloads::ONTOLOGIES;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = env_scale(0.1);
    let mut csv_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--full" => scale = 1.0,
            "--scale" => {
                scale = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale needs a positive number");
            }
            "--csv" => {
                csv_path = Some(iter.next().expect("--csv needs a path").clone());
            }
            "--json" => {
                json_path = Some(iter.next().expect("--json needs a path").clone());
            }
            other => {
                eprintln!("unknown argument {other}");
                eprintln!("usage: table1 [--scale F] [--full] [--csv PATH] [--json PATH]");
                std::process::exit(2);
            }
        }
    }

    let config = SliderConfig::default();
    eprintln!(
        "# Table 1 reproduction — scale {scale} (chains at paper size), \
         buffer {} triples, timeout {:?}, {} workers",
        config.buffer_capacity, config.timeout, config.workers
    );

    let mut rows = Vec::new();
    for &ontology in &ONTOLOGIES {
        eprintln!("running {ontology} …");
        rows.push(table1_row(ontology, scale, &config));
    }
    println!("{}", render_table(&rows));

    if let Some(path) = csv_path {
        std::fs::write(&path, render_csv(&rows)).expect("write CSV");
        eprintln!("wrote {path}");
    }
    if let Some(path) = json_path {
        render_report(&rows, scale)
            .config("buffer_capacity", config.buffer_capacity)
            .config("workers", config.workers)
            .write(&path)
            .expect("write JSON trajectory");
    }
}
