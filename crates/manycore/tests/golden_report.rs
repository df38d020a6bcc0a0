//! Golden `SystemReport` values for the Table VI CMP. The values of
//! `cmp_reports_match_the_recorded_values` were recorded from the
//! network interface that kept payloads in a `HashMap` and ran its own
//! switch loop, before `SwitchNet` moved onto the shared `SwitchCycle`;
//! those of `capped_and_mlp_runs_match_the_recorded_values` from the
//! CMP that stepped every core, bank and controller on every cycle and
//! counted every transfer down flit by flit. Any change to cycle
//! semantics (grant or arrival order, message latency, memory timing,
//! when a stalled core wakes, how an unfinished core is reported)
//! shows up here.

use hirise_core::{HiRiseConfig, HiRiseSwitch, Switch2d};
use hirise_manycore::{table_vi_mixes, CmpSystem, SystemConfig, SystemReport};

/// Elapsed cycles, messages delivered, mean network latency (bits),
/// memory fills, peak bank queue and an FNV-1a hash of the per-core IPC
/// bits.
type Fingerprint = (u64, u64, u64, u64, usize, u64);

/// The pinned fields of a report, with floats as bits.
fn fingerprint(report: &SystemReport) -> Fingerprint {
    let ipc = report
        .per_core_ipc()
        .iter()
        .flat_map(|ipc| ipc.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325_u64, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
        });
    (
        report.elapsed_cycles(),
        report.net_delivered(),
        report.net_avg_latency_cycles().to_bits(),
        report.mem_fills(),
        report.bank_peak_queue(),
        ipc,
    )
}

/// Runs Table VI mix `mix` on the 2D fabric at 1.69 GHz or the
/// paper-optimal Hi-Rise at 2.2 GHz.
fn run(mix: usize, fabric: &str, cfg: SystemConfig) -> SystemReport {
    let mix = &table_vi_mixes()[mix];
    if fabric == "hirise" {
        let hirise = HiRiseSwitch::new(&HiRiseConfig::paper_optimal());
        CmpSystem::new(hirise, 2.2, mix, cfg).run()
    } else {
        CmpSystem::new(Switch2d::new(64), 1.69, mix, cfg).run()
    }
}

#[test]
fn cmp_reports_match_the_recorded_values() {
    let mixes = table_vi_mixes();
    let cfg = SystemConfig::new().instructions_per_core(2_000);
    let cases: [(usize, &str, Fingerprint); 4] = [
        (
            0,
            "2d",
            (
                1269,
                3766,
                0x4018_07e2_a254_04e5,
                352,
                2,
                0x4c96_89f1_b92c_bf21,
            ),
        ),
        (
            0,
            "hirise",
            (
                1141,
                3719,
                0x4014_d25c_a722_12dc,
                331,
                3,
                0x67ea_98d0_08fa_bcc8,
            ),
        ),
        (
            7,
            "2d",
            (
                4430,
                19122,
                0x403b_bd0c_4a38_b5dc,
                2643,
                5,
                0x2065_a775_ccfe_258d,
            ),
        ),
        (
            7,
            "hirise",
            (
                4012,
                19122,
                0x403c_08b0_4a1d_4ad6,
                2643,
                7,
                0x8f10_351d_6608_a3fa,
            ),
        ),
    ];
    for (mix, fabric, expected) in cases {
        let report = run(mix, fabric, cfg.clone());
        assert!(report.finished());
        assert_eq!(
            fingerprint(&report),
            expected,
            "{} on {fabric}",
            mixes[mix].name
        );
    }
}

/// Mix1 and Mix8 on both fabrics with the cores cut off by the cycle
/// cap (each unfinished core reports its IPC over the 700 cycles run),
/// with one outstanding miss per core (a core stalls on every miss and
/// wakes on its reply) and with sixteen.
#[test]
fn capped_and_mlp_runs_match_the_recorded_values() {
    let base = SystemConfig::new().instructions_per_core(2_000);
    let capped = base.clone().max_core_cycles(700);
    let mlp1 = base.clone().mlp(1);
    let mlp16 = base.mlp(16);
    let cases: [(&str, &SystemConfig, usize, &str, Fingerprint); 12] = [
        (
            "capped",
            &capped,
            0,
            "2d",
            (
                700,
                2370,
                0x401b_f984_dc5a_bbf3,
                180,
                2,
                0x8b22_f0ba_2e25_901f,
            ),
        ),
        (
            "capped",
            &capped,
            0,
            "hirise",
            (
                700,
                2423,
                0x4017_ccdd_074a_465e,
                180,
                2,
                0x3563_3125_36d6_4aad,
            ),
        ),
        (
            "capped",
            &capped,
            7,
            "2d",
            (
                700,
                4983,
                0x4034_7e2d_1b61_f8b4,
                602,
                5,
                0x319d_00af_4af3_9011,
            ),
        ),
        (
            "capped",
            &capped,
            7,
            "hirise",
            (
                700,
                5375,
                0x4037_b345_7d36_b977,
                640,
                7,
                0xab48_df12_d977_ac20,
            ),
        ),
        (
            "mlp1",
            &mlp1,
            0,
            "2d",
            (
                5169,
                3772,
                0x4006_8731_ae03_ccf6,
                355,
                3,
                0xcefa_e3b8_d24a_4502,
            ),
        ),
        (
            "mlp1",
            &mlp1,
            0,
            "hirise",
            (
                5008,
                3772,
                0x4006_6d21_ef2b_2a14,
                355,
                2,
                0xd487_592d_c720_9806,
            ),
        ),
        (
            "mlp1",
            &mlp1,
            7,
            "2d",
            (
                21638,
                19133,
                0x4009_0377_262c_5766,
                2648,
                3,
                0x7f7c_0610_a785_435c,
            ),
        ),
        (
            "mlp1",
            &mlp1,
            7,
            "hirise",
            (
                21074,
                19133,
                0x4009_0fab_0295_148a,
                2648,
                3,
                0xf9a9_d62d_ce7b_c579,
            ),
        ),
        (
            "mlp16",
            &mlp16,
            0,
            "2d",
            (
                1062,
                3675,
                0x401b_cc73_a2a7_e15a,
                313,
                2,
                0x9896_9b94_3fac_48b3,
            ),
        ),
        (
            "mlp16",
            &mlp16,
            0,
            "hirise",
            (
                1062,
                3678,
                0x4016_0281_762f_9bc6,
                313,
                2,
                0x9896_9b94_3fac_48b3,
            ),
        ),
        (
            "mlp16",
            &mlp16,
            7,
            "2d",
            (
                3908,
                19107,
                0x4050_ffb7_f89a_ab4f,
                2636,
                6,
                0xac66_056f_3769_688a,
            ),
        ),
        (
            "mlp16",
            &mlp16,
            7,
            "hirise",
            (
                3275,
                19079,
                0x4051_8bc4_7a6c_c3f4,
                2622,
                7,
                0xa1d3_52ce_f69c_b76a,
            ),
        ),
    ];
    for (label, cfg, mix, fabric, expected) in cases {
        let report = run(mix, fabric, cfg.clone());
        assert_eq!(
            report.finished(),
            label != "capped",
            "{label} Mix{} on {fabric}",
            mix + 1
        );
        assert_eq!(
            fingerprint(&report),
            expected,
            "{label} Mix{} on {fabric}",
            mix + 1
        );
    }
}
