//! Quickstart: build a machine, attach PREFENDER, run a program, read the
//! timing — the five-minute tour of the public API.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use prefender::{
    BasicPrefetcher, HierarchyConfig, Machine, Prefender, Program, Reg, StridePrefetcher,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The paper's baseline hierarchy: 32 KB L1I + 64 KB L1D per core,
    //    2 MB shared L2, 64-byte lines, 4 MSHRs.
    let mut machine = Machine::new(HierarchyConfig::paper_baseline(1)?);

    // 2. Attach the full PREFENDER (ST + AT + RP) with a Stride basic
    //    prefetcher underneath — the paper's Table V column 10 setup.
    let prefender = Prefender::builder(64, 4096)
        .access_buffers(32)
        .basic(BasicPrefetcher::Stride(StridePrefetcher::default_config()))
        .build();
    machine.set_prefetcher(0, prefender);

    // 3. Assemble a program. This one walks an array the way a victim's
    //    secret-dependent load would: address = base + secret * 0x200.
    let program = Program::parse(
        "
        li   r0, 0x2000        ; &secret
        ld   r1, 0(r0)         ; r1 = secret (a variable, to the ST)
        li   r2, 0x100000      ; array base
        li   r3, 0x200         ; the scale
        mul  r4, r1, r3
        add  r5, r2, r4
        ld   r6, 0(r5)         ; the secret-dependent access
        halt
        ",
    )?;
    machine.write_data(0x2000, 42); // the secret
    machine.trace_mut().set_enabled(true);
    machine.load_program(0, program);

    // 4. Run and inspect.
    let summary = machine.run();
    println!("ran: {summary}");
    println!("loaded array[secret*0x200] where secret = {}", machine.core(0).regs().read(Reg::R1));

    for entry in machine.trace().entries() {
        println!(
            "  load @ pc {:#x}: addr {} took {} cycles ({})",
            entry.pc, entry.addr, entry.latency, entry.served_by
        );
    }

    // 5. The Scale Tracker learned the 0x200 scale from dataflow and
    //    prefetched the neighbouring eviction cachelines — the lines an
    //    attacker would need to tell secret 41/42/43 apart.
    let secret_line = 0x100000 + 42 * 0x200u64;
    for delta in [-0x200i64, 0, 0x200] {
        let addr = prefender::Addr::new((secret_line as i64 + delta) as u64);
        println!("  line {addr}: in L1D = {}", machine.mem().probe_l1d(0, addr));
    }
    Ok(())
}
