//! The complete figure/table regeneration harness: prints the rows/series
//! of every artifact in the paper's evaluation.
//!
//! Usage:
//!   cargo run --release --example paper_figures -- <artifact> [--small]
//!
//! Artifacts: table2, fig3, fig4, fig6a, fig6b, fig7a, fig7b, fig8a,
//! fig8b, fig9a, fig9b, fig10a, fig10b, fig11a, fig11b, fig12a, fig12b,
//! fig13, fig14, diversity, all
//!
//! Runs the paper's CORAL-Summit-scale configs (§4.1) by default —
//! each figure's curves fan across the worker pool and intra-run
//! sharding (`D2NET_SHARDS`, DESIGN.md §14) splits each point, which
//! keeps the runtimes tractable; see EXPERIMENTS.md. `D2NET_THREADS`
//! pins the worker count (`D2NET_THREADS=1` is the serial run; output
//! is identical at every count), and sweep notices are printed once per
//! figure. `--small` switches to the reduced ~400-600-node
//! configurations for laptop-speed turnaround (`--full` is still
//! accepted and names the default).
//! `--svg <dir>` additionally renders each simulated figure to SVG.

use d2net::prelude::*;
use std::path::PathBuf;

fn svg_dir(args: &[String]) -> Option<PathBuf> {
    args.iter().position(|a| a == "--svg").map(|i| {
        let dir = PathBuf::from(args.get(i + 1).cloned().unwrap_or_else(|| "results".into()));
        std::fs::create_dir_all(&dir).expect("create svg output dir");
        dir
    })
}

fn save_svg(dir: &Option<PathBuf>, name: &str, svg: String) {
    if let Some(dir) = dir {
        let path = dir.join(format!("{name}.svg"));
        std::fs::write(&path, svg).expect("write svg");
        eprintln!("wrote {}", path.display());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let artifact = args.get(1).cloned().unwrap_or_else(|| {
        eprintln!("usage: paper_figures <table2|fig3|fig4|fig6a|...|fig14|diversity|all> [--small]");
        std::process::exit(2);
    });
    let scale = if args.iter().any(|a| a == "--small") {
        Scale::Reduced
    } else {
        Scale::Full
    };
    let params = RunParams::for_scale(scale);
    let svg = svg_dir(&args);
    let threads = resolve_threads(0);

    let run = |name: &str| artifact == name || artifact == "all";

    // The drivers return their notices instead of printing them.
    let curves_of = |set: CurveSet| -> Vec<Curve> {
        for n in &set.notices {
            eprintln!("{}", n.render());
        }
        set.curves
    };

    if run("table2") {
        println!("== Table 2: 4-ML3B ==");
        print!("{}", render_table2(&table2()));
        println!();
    }
    if run("fig3") {
        println!("== Fig. 3: scale vs radix ==");
        print!("{}", render_fig3(&fig3(&[16, 24, 32, 48, 64])));
        println!();
    }
    if run("fig4") {
        println!("== Fig. 4: approximate bisection bandwidth ==");
        let restarts = if scale == Scale::Full { 8 } else { 4 };
        print!("{}", render_fig4(&fig4(restarts)));
        println!();
    }
    if run("fig6a") {
        println!("== Fig. 6a: oblivious routing, uniform traffic ({scale:?}) ==");
        let nets = eval_topologies(scale);
        let curves = curves_of(fig6(&nets, Traffic::Uniform, &params, threads));
        print!("{}", render_curves(&curves));
        save_svg(&svg, "fig6a_throughput", throughput_chart("Fig 6a: MIN/INR, uniform", &curves).render());
        save_svg(&svg, "fig6a_delay", delay_chart("Fig 6a: delay, uniform", &curves).render());
    }
    if run("fig6b") {
        println!("== Fig. 6b: oblivious routing, worst-case traffic ({scale:?}) ==");
        let nets = eval_topologies(scale);
        let curves = curves_of(fig6(&nets, Traffic::WorstCase, &params, threads));
        print!("{}", render_curves(&curves));
        save_svg(&svg, "fig6b_throughput", throughput_chart("Fig 6b: MIN/INR, worst case", &curves).render());
        save_svg(&svg, "fig6b_delay", delay_chart("Fig 6b: delay, worst case", &curves).render());
    }
    // Figs. 7-12: adaptive parameter sweeps. Topology index in the
    // eval set: SF(p=floor) for 7/8, MLFM for 9/11, OFT for 10/12.
    for (fig, idx) in [(7u8, 0usize), (8, 0), (9, 2), (10, 3), (11, 2), (12, 3)] {
        for panel in ['a', 'b'] {
            if !run(&format!("fig{fig}{panel}")) {
                continue;
            }
            let nets = eval_topologies(scale);
            let net = &nets[idx];
            let kind = match fig {
                7 => "SF-A",
                8 => "SF-ATh (T=10%)",
                9 => "MLFM-A",
                10 => "OFT-A",
                11 => "MLFM-ATh (T=10%)",
                _ => "OFT-ATh (T=10%)",
            };
            println!("== Fig. {fig}{panel}: {kind} on {} ({scale:?}) ==", net.name());
            let variants = adaptive_variants(fig, panel);
            let curves = curves_of(adaptive_sweep(net, &variants, &params, threads));
            print!("{}", render_curves(&curves));
            let base = format!("fig{fig}{panel}");
            save_svg(&svg, &format!("{base}_throughput"),
                throughput_chart(&format!("Fig {fig}{panel}: {kind}"), &curves).render());
            save_svg(&svg, &format!("{base}_delay"),
                delay_chart(&format!("Fig {fig}{panel}: {kind} delay"), &curves).render());
        }
    }
    if run("fig13") {
        println!("== Fig. 13: all-to-all effective throughput ({scale:?}) ==");
        let nets = eval_topologies(scale);
        let rows = fig13(&nets, 7_680, &params);
        print!("{}", render_exchange(&rows));
        save_svg(&svg, "fig13", exchange_chart("Fig 13: all-to-all", &rows).render());
        println!();
    }
    if run("fig14") {
        println!("== Fig. 14: nearest-neighbor effective throughput ({scale:?}) ==");
        let nets = eval_topologies(scale);
        let bytes = if scale == Scale::Full { 524_288 } else { 65_536 };
        let rows = fig14(&nets, bytes, &params);
        print!("{}", render_exchange(&rows));
        save_svg(&svg, "fig14", exchange_chart("Fig 14: nearest neighbor", &rows).render());
        println!();
    }
    if run("diversity") {
        println!("== §2.3.3: shortest-path diversity ==");
        for (what, mean, max) in diversity_report() {
            println!("{what}: mean {mean:.3}, max {max}");
        }
        println!();
    }
}
