//! Pins the scalar engine's exact dynamics in the two regimes only it
//! runs: finite-buffer blocking and random-digit routing. The stage
//! sweep's `==` oracle covers infinite-buffer destination-tag configs
//! only, so these literal counts are what holds a rewrite of the scalar
//! queues to the same message-by-message behaviour: every ledger
//! counter, the cycle count, every stage and total pmf count and (with
//! correlations on) the exact covariance bits.

use banyan_sim::network::{run_network, NetworkConfig, NetworkStats, Routing};
use banyan_sim::traffic::{ServiceDist, Workload};

/// The pinned values of one run.
struct Pin {
    injected_total: u64,
    rejected_total: u64,
    delivered_total: u64,
    in_flight_at_end: u64,
    cycles: u64,
    /// Dense pmf counts per stage (`counts[w]` = messages that waited
    /// `w` cycles), then the total-wait pmf's.
    stages: &'static [&'static [u64]],
    total: &'static [u64],
    /// `covariance(i, j).to_bits()` for `i ≤ j`, row-major.
    covariance_bits: Option<&'static [u64]>,
}

fn counts(h: &banyan_obs::DistSketch) -> Vec<u64> {
    let mut dense = vec![0; h.max_value().map_or(0, |m| m as usize + 1)];
    for (v, c) in h.count_points() {
        dense[v as usize] = c;
    }
    dense
}

fn assert_pinned(name: &str, s: &NetworkStats, pin: &Pin) {
    assert_eq!(
        s.injected_total, pin.injected_total,
        "{name}: injected_total"
    );
    assert_eq!(
        s.rejected_total, pin.rejected_total,
        "{name}: rejected_total"
    );
    assert_eq!(
        s.delivered_total, pin.delivered_total,
        "{name}: delivered_total"
    );
    assert_eq!(
        s.in_flight_at_end, pin.in_flight_at_end,
        "{name}: in_flight_at_end"
    );
    assert_eq!(s.cycles, pin.cycles, "{name}: cycles");
    // Every tracked message is delivered, so both tracked counters equal
    // the mass of each pmf.
    let tracked: u64 = pin.total.iter().sum();
    assert_eq!(
        (s.injected, s.delivered),
        (tracked, tracked),
        "{name}: tracked"
    );
    assert_eq!(s.stage_waits.len(), pin.stages.len(), "{name}: stages");
    for (j, (h, want)) in s.stage_waits.iter().zip(pin.stages).enumerate() {
        assert_eq!(counts(h), *want, "{name}: stage {} pmf", j + 1);
    }
    assert_eq!(counts(&s.total_wait), pin.total, "{name}: total pmf");
    assert_eq!(s.total_hist, s.total_wait, "{name}: total_hist");
    match (&s.correlations, pin.covariance_bits) {
        (Some(c), Some(want)) => {
            let n = s.stage_waits.len();
            let got: Vec<u64> = (0..n)
                .flat_map(|i| (i..n).map(move |j| (i, j)))
                .map(|(i, j)| c.covariance(i, j).to_bits())
                .collect();
            assert_eq!(c.count(), tracked, "{name}: correlation count");
            assert_eq!(got, want, "{name}: covariance bits");
        }
        (None, None) => {}
        _ => panic!("{name}: correlation collection differs from the pin"),
    }
}

fn cfg(k: u32, stages: u32, workload: Workload) -> NetworkConfig {
    NetworkConfig {
        warmup_cycles: 200,
        measure_cycles: 1_500,
        seed: 0x0D15_EA5E,
        ..NetworkConfig::new(k, stages, workload)
    }
}

#[test]
fn hotspot_into_capacity_4_is_pinned() {
    let mut c = cfg(2, 4, Workload::hotspot(0.6, 0.1));
    c.buffer_capacity = Some(4);
    assert_pinned("hotspot cap 4", &run_network(c), &HOTSPOT_CAP4);
}

#[test]
fn capacity_1_at_p_0_9_is_pinned() {
    let mut c = cfg(2, 4, Workload::uniform(0.9, 1));
    c.buffer_capacity = Some(1);
    assert_pinned("cap 1 p 0.9", &run_network(c), &CAP1_P09);
}

#[test]
fn random_digit_geometric_service_is_pinned() {
    let wl = Workload {
        p: 0.3,
        q: 0.0,
        service: ServiceDist::Geometric(0.5),
    };
    let c = cfg(8, 3, wl).with_random_digit_width(2);
    assert_pinned("random digit k 8", &run_network(c), &RANDOM_DIGIT_K8);
}

#[test]
fn butterfly_capacity_2_mixed_service_with_correlations_is_pinned() {
    let wl = Workload {
        p: 0.2,
        q: 0.0,
        service: ServiceDist::Mixed(vec![(1, 0.5), (3, 0.5)]),
    };
    let mut c = cfg(2, 4, wl);
    c.routing = Routing::Butterfly;
    c.buffer_capacity = Some(2);
    c.collect_correlations = true;
    assert_pinned("butterfly cap 2", &run_network(c), &BUTTERFLY_CAP2);
}

// Values recorded from the slab-based scalar engine these tests were
// written against.

const HOTSPOT_CAP4: Pin = Pin {
    injected_total: 16413,
    rejected_total: 64,
    delivered_total: 16362,
    in_flight_at_end: 51,
    cycles: 1714,
    stages: &[
        &[9785, 3494, 799, 223, 44, 22, 6, 9, 9, 4, 0, 3, 4, 2, 5, 1],
        &[9528, 3578, 1083, 93, 58, 33, 16, 2, 3, 6, 2, 1, 4, 1, 1, 1],
        &[9586, 3465, 1155, 111, 49, 29, 3, 2, 6, 1, 1, 0, 0, 1, 1],
        &[9713, 3548, 1149],
    ],
    total: &[
        3549, 4179, 3003, 1817, 886, 427, 228, 123, 74, 34, 22, 18, 6, 8, 13, 6, 9, 4, 2, 1, 0, 1,
    ],
    covariance_bits: None,
};

const CAP1_P09: Pin = Pin {
    injected_total: 7256,
    rejected_total: 17375,
    delivered_total: 7226,
    in_flight_at_end: 30,
    cycles: 1712,
    stages: &[
        &[
            2433, 1990, 389, 374, 206, 187, 137, 118, 67, 63, 51, 36, 31, 27, 22, 27, 22, 18, 14,
            6, 16, 9, 4, 5, 9, 7, 5, 3, 2, 9, 3, 1, 0, 1, 3, 8, 1, 1, 1, 0, 1, 1, 2, 1, 2, 2, 0, 0,
            0, 1, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1,
        ],
        &[
            4784, 368, 562, 86, 230, 34, 97, 19, 56, 7, 20, 4, 16, 1, 15, 0, 6, 1, 3, 0, 4, 1, 1,
            0, 4, 0, 3, 0, 1, 0, 0, 0, 0, 0, 1,
        ],
        &[
            5408, 239, 416, 38, 145, 10, 41, 2, 16, 2, 3, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1,
        ],
        &[6324],
    ],
    total: &[
        1591, 1674, 615, 530, 324, 342, 227, 192, 117, 129, 82, 76, 53, 53, 39, 24, 29, 35, 22, 23,
        15, 15, 11, 8, 10, 10, 7, 4, 4, 5, 6, 7, 3, 0, 2, 7, 4, 4, 0, 1, 2, 2, 2, 3, 1, 1, 0, 1, 0,
        0, 1, 0, 0, 0, 1, 1, 0, 2, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1,
    ],
    covariance_bits: None,
};

const RANDOM_DIGIT_K8: Pin = Pin {
    injected_total: 32948,
    rejected_total: 0,
    delivered_total: 32803,
    in_flight_at_end: 145,
    cycles: 1721,
    stages: &[
        &[
            13813, 3735, 2786, 2133, 1591, 1164, 919, 618, 468, 379, 327, 218, 132, 107, 89, 90,
            47, 50, 40, 29, 28, 15, 5, 4, 4,
        ],
        &[
            13860, 3731, 2718, 2137, 1611, 1285, 861, 684, 485, 326, 249, 189, 172, 127, 94, 83,
            62, 34, 28, 15, 21, 9, 4, 2, 3, 1,
        ],
        &[
            13791, 3737, 2810, 2056, 1618, 1122, 921, 722, 510, 399, 267, 210, 159, 124, 64, 61,
            43, 37, 35, 27, 16, 22, 10, 9, 3, 5, 3, 2, 2, 0, 4, 2,
        ],
    ],
    total: &[
        3428, 2607, 2622, 2533, 2306, 2200, 1980, 1699, 1477, 1273, 1168, 918, 797, 668, 576, 455,
        369, 306, 254, 217, 171, 160, 128, 102, 70, 70, 51, 44, 35, 21, 16, 13, 12, 5, 7, 6, 6, 7,
        2, 4, 3, 0, 2, 2, 0, 0, 1,
    ],
    covariance_bits: None,
};

const BUTTERFLY_CAP2: Pin = Pin {
    injected_total: 5274,
    rejected_total: 101,
    delivered_total: 5257,
    in_flight_at_end: 17,
    cycles: 1708,
    stages: &[
        &[3230, 543, 448, 230, 96, 51, 4, 7, 3],
        &[3507, 439, 362, 209, 62, 16, 5, 5, 2, 3, 2],
        &[3522, 439, 371, 210, 55, 9, 4, 2],
        &[3674, 352, 353, 197, 36],
    ],
    total: &[
        1746, 751, 663, 509, 318, 240, 148, 87, 45, 42, 26, 21, 8, 2, 1, 3, 0, 1, 1,
    ],
    covariance_bits: Some(&[
        0x3ff5370f52204618,
        0x3fce69669129095c,
        0x3fb394d7beb065d0,
        0x3f9c3cc3fe627ef8,
        0x3ff18fd913ad532e,
        0x3fc92fc07261af55,
        0x3fa7bce3c402c5ae,
        0x3fed14378dd13091,
        0x3fc15281311fd624,
        0x3fe7b38318865478,
    ]),
};
