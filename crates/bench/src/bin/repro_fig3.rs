//! E1–E3 — Figure 3: dataset characterization, March vs September samples.
//!
//! (a) CDF across domains of URLs-per-domain (log-spaced grid);
//! (b) CDF across URLs of site rank;
//! (c) CDF across URLs of posting date.

use permadead_bench::Repro;
use permadead_core::Dataset;
use permadead_stats::{render_cdf, Cdf};

fn main() {
    let repro = Repro::from_env();
    let ranks = &repro.world.web.ranks;

    for ds in [&repro.march, &repro.september] {
        println!("=== Figure 3, dataset '{}' ({} URLs) ===\n", ds.label, ds.len());

        // (a) URLs per domain
        let per_domain: Vec<f64> = ds.urls_per_domain().iter().map(|&c| c as f64).collect();
        let n_domains = per_domain.len();
        let cdf = Cdf::new(per_domain);
        println!(
            "{}",
            render_cdf(
                &format!("Fig 3(a): URLs per domain ({n_domains} domains)"),
                &cdf,
                &[1.0, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0, 300.0],
                "urls/domain",
            )
        );
        single_url_share(ds);

        // (b) site rank across URLs
        let rank_samples: Vec<f64> = ds
            .entries
            .iter()
            .map(|e| f64::from(ranks.rank(e.url.host())))
            .collect();
        let cdf = Cdf::new(rank_samples);
        println!(
            "{}",
            render_cdf(
                "Fig 3(b): site ranking across URLs",
                &cdf,
                &[1e3, 1e4, 1e5, 2e5, 4e5, 6e5, 8e5, 1e6],
                "rank",
            )
        );

        // (c) posting dates
        let cdf = Cdf::new(ds.post_years());
        println!(
            "{}",
            render_cdf(
                "Fig 3(c): date link posted",
                &cdf,
                &[2006.0, 2008.0, 2010.0, 2012.0, 2014.0, 2015.0, 2016.0, 2017.0, 2018.0, 2020.0, 2022.0],
                "year",
            )
        );
        // the paper's two anchor claims
        let after_2015 = ds.post_years().iter().filter(|&&y| y >= 2015.0).count();
        let after_2017 = ds.post_years().iter().filter(|&&y| y >= 2017.0).count();
        println!(
            "  posted after 2015: {:.0}% (paper: 40%); after 2017: {:.0}% (paper: 20%)\n",
            after_2015 as f64 * 100.0 / ds.len() as f64,
            after_2017 as f64 * 100.0 / ds.len() as f64,
        );
    }
}

fn single_url_share(ds: &Dataset) {
    let per = ds.urls_per_domain();
    let single = per.iter().filter(|&&c| c == 1).count();
    println!(
        "  domains contributing a single URL: {:.0}% (paper: >70%); hostnames: {}\n",
        single as f64 * 100.0 / per.len().max(1) as f64,
        ds.distinct_hostnames(),
    );
}
