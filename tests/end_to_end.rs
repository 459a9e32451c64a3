//! End-to-end flows through the facade: the README's claims, executable.

use prefender::{
    run_attack, spec2006, spec2017, AttackKind, AttackSpec, BasicPrefetcher, DefenseConfig,
    HierarchyConfig, Machine, Prefender, Program, Reg, StridePrefetcher, TaggedPrefetcher,
    Workload,
};

fn cycles(w: &Workload, prefetcher: Option<Prefender>) -> u64 {
    let mut m = Machine::new(HierarchyConfig::paper_baseline(1).unwrap());
    if let Some(p) = prefetcher {
        m.set_prefetcher(0, p);
    }
    w.install(&mut m);
    let s = m.run();
    assert!(!s.truncated);
    s.cycles
}

#[test]
fn headline_claim_security_and_performance() {
    // Security: the attack is defeated...
    let o = run_attack(&AttackSpec::new(AttackKind::FlushReload, DefenseConfig::Full)).unwrap();
    assert!(!o.leaked);
    // ...and performance does not regress on average across the suite.
    let mut base_total = 0u64;
    let mut defended_total = 0u64;
    for w in spec2006() {
        base_total += cycles(&w, None);
        defended_total += cycles(&w, Some(Prefender::builder(64, 4096).build()));
    }
    assert!(
        defended_total <= base_total,
        "PREFENDER regressed overall: {defended_total} vs {base_total}"
    );
}

#[test]
fn scale_tracker_accelerates_gather_workloads() {
    let parest = spec2017().into_iter().find(|w| w.name() == "510.parest_r").unwrap();
    let base = cycles(&parest, None);
    let st_only = cycles(
        &parest,
        Some(Prefender::builder(64, 4096).access_tracker(false).record_protector(false).build()),
    );
    assert!(
        (st_only as f64) < base as f64 * 0.97,
        "ST alone should speed up parest by >3%: {st_only} vs {base}"
    );
}

#[test]
fn compute_bound_workloads_are_untouched() {
    for name in ["999.specrand", "548.exchange2_r"] {
        let w = spec2006().into_iter().chain(spec2017()).find(|w| w.name() == name).unwrap();
        let base = cycles(&w, None);
        let defended = cycles(&w, Some(Prefender::builder(64, 4096).build()));
        assert_eq!(base, defended, "{name} must be cycle-identical");
    }
}

#[test]
fn prefender_stacks_on_conventional_prefetchers() {
    // Compatibility claim: PREFENDER over Tagged/Stride never breaks a
    // workload (and the combination still defends).
    let w = spec2006().into_iter().find(|w| w.name() == "401.bzip2").unwrap();
    let base = cycles(&w, None);
    for basic in [
        BasicPrefetcher::Tagged(TaggedPrefetcher::new(64, 1)),
        BasicPrefetcher::Stride(StridePrefetcher::default_config()),
    ] {
        let stacked = Prefender::builder(64, 4096).basic(basic).build();
        let c = cycles(&w, Some(stacked));
        assert!(c < base, "stacked configuration must still help bzip2");
    }
}

#[test]
fn assembled_victim_triggers_scale_tracker_end_to_end() {
    let mut m = Machine::new(HierarchyConfig::paper_baseline(1).unwrap());
    m.set_prefetcher(0, Prefender::builder(64, 4096).build());
    m.write_data(0x2000, 12);
    m.load_program(
        0,
        Program::parse(
            "
            li r0, 0x2000
            ld r1, 0(r0)
            li r2, 0x100000
            li r3, 0x200
            mul r4, r1, r3
            add r5, r2, r4
            ld r6, 0(r5)
            halt
            ",
        )
        .unwrap(),
    );
    m.run();
    assert_eq!(m.core(0).regs().read(Reg::R1), 12);
    // The Figure 5 example: at least two more eviction cachelines present.
    let line = |i: i64| prefender::Addr::new((0x100000 + 12 * 0x200 + i * 0x200) as u64);
    assert!(m.mem().probe_l1d(0, line(0)), "the demand line");
    assert!(m.mem().probe_l1d(0, line(1)), "ST's +scale neighbour");
    assert!(m.mem().probe_l1d(0, line(-1)), "ST's -scale neighbour");
}

#[test]
fn full_machine_runs_are_deterministic() {
    let run = || {
        let w = spec2006().into_iter().find(|w| w.name() == "429.mcf").unwrap();
        cycles(&w, Some(Prefender::builder(64, 4096).build()))
    };
    assert_eq!(run(), run());
}
