//! Write-phase structure, workload shapes and per-operation traffic of every
//! implemented algorithm (`tab-phases`, `tab-workloads`, `tab-traffic`).

use super::{abd_world, cas_world};
use crate::render::Table;
use shmem_algorithms::abd::{self, AbdClient};
use shmem_algorithms::abd_gossip::{AbdGossip, GossipServer};
use shmem_algorithms::cas::{self, CasConfig};
use shmem_algorithms::harness::{AbdCluster, CasCluster};
use shmem_algorithms::hashed::{self, HashedCas, HashedClient, HashedServer};
use shmem_algorithms::swmr::swmr_world;
use shmem_algorithms::value::ValueSpec;
use shmem_sim::{ClientId, ServerId, Sim, SimConfig};

/// The gossiping ABD world on N = 5.
fn gossip_world(clients: u32, spec: ValueSpec) -> Sim<AbdGossip> {
    Sim::new(
        SimConfig::with_gossip(),
        (0..5).map(|i| GossipServer::new(i, 5, 0, spec)).collect(),
        (0..clients).map(|c| AbdClient::new(5, c)).collect(),
    )
}

/// The hash-announcing CAS world on N = 5, f = 1.
fn hashed_world(clients: u32, spec: ValueSpec) -> Sim<HashedCas> {
    let cfg = CasConfig::native(5, 1, spec);
    Sim::new(
        SimConfig::without_gossip(),
        (0..5)
            .map(|i| HashedServer::new(cfg, ServerId(i), 0))
            .collect(),
        (0..clients).map(|c| HashedClient::new(cfg, c)).collect(),
    )
}

/// The Section 6.1 assumption-structure table: write-phase profiles of
/// every implemented algorithm, deciding Theorem 6.5 applicability.
pub fn phases_table() -> Table {
    use shmem_core::assumptions::{write_phase_profile, PhaseProfile};

    let mut t = Table::new(
        "Write-phase structure (Assumptions 2 and 3b of Section 6.1)",
        &[
            "algorithm",
            "phases",
            "value-dependent phases",
            "satisfies 3(b)",
            "Theorem 6.5 applies",
        ],
    );
    let spec = ValueSpec::from_bits(64.0);
    let mut push = |name: &str, p: PhaseProfile| {
        let ok = p.satisfies_assumption_3b();
        t.push(vec![
            name.to_string(),
            p.phases().to_string(),
            p.value_dependent_phases().to_string(),
            ok.to_string(),
            if ok { "yes" } else { "conjectured (Sec 6.5)" }.to_string(),
        ]);
    };

    let abd_sim = abd_world(5, 1, spec);
    push(
        "ABD (MWMR)",
        write_phase_profile(abd_sim, ClientId(0), 7, abd::is_value_dependent_upstream).unwrap(),
    );

    let swmr_sim = swmr_world(5, 1, spec);
    push(
        "ABD (SWMR)",
        write_phase_profile(swmr_sim, ClientId(0), 7, abd::is_value_dependent_upstream).unwrap(),
    );

    let gossip_sim = gossip_world(1, spec);
    push(
        "ABD (gossip)",
        write_phase_profile(gossip_sim, ClientId(0), 7, abd::is_value_dependent_upstream).unwrap(),
    );

    let cas_sim = cas_world(5, 1, 1, spec);
    push(
        "CAS",
        write_phase_profile(cas_sim, ClientId(0), 7, cas::is_value_dependent_upstream).unwrap(),
    );

    let hashed_sim = hashed_world(1, spec);
    push(
        "Hashed CAS [2,15]",
        write_phase_profile(
            hashed_sim,
            ClientId(0),
            7,
            hashed::is_value_dependent_upstream,
        )
        .unwrap(),
    );
    t
}

/// Workload-shape table: measured `ν` and storage under the bursty, ramp
/// and crash-prone workload generators.
pub fn workloads_table(seed: u64) -> Table {
    use shmem_algorithms::workloads::{run_bursty, run_crashy, run_ramp, WorkloadReport};
    let spec = ValueSpec::from_bits(64.0);
    let mut t = Table::new(
        "Workload shapes: measured nu and storage (N=5)",
        &[
            "workload",
            "algorithm",
            "ops",
            "completed",
            "measured nu",
            "total storage (normalized)",
        ],
    );
    let mut push = |workload: &str, algorithm: &str, r: WorkloadReport, peak_total_bits: f64| {
        t.push(vec![
            workload.into(),
            algorithm.into(),
            r.invoked.to_string(),
            r.completed.to_string(),
            r.measured_nu.to_string(),
            format!("{:.3}", peak_total_bits / 64.0),
        ]);
    };
    let mut c = AbdCluster::new(5, 2, 4, spec);
    let r = run_bursty(&mut c, 3, 2, seed).expect("bursty abd");
    push("bursty(3x2)", "ABD", r, c.storage().peak_total_bits);
    let mut c = CasCluster::new(5, 1, 4, spec);
    let r = run_bursty(&mut c, 3, 2, seed).expect("bursty cas");
    push("bursty(3x2)", "CAS", r, c.storage().peak_total_bits);
    let mut c = CasCluster::new(5, 1, 4, spec);
    let r = run_ramp(&mut c, 3, seed).expect("ramp cas");
    push("ramp(1..3)", "CAS", r, c.storage().peak_total_bits);
    let mut c = CasCluster::new(5, 1, 6, spec);
    let r = run_crashy(&mut c, 3, 10, seed).expect("crashy cas");
    push("crashy(3 orphans)", "CAS", r, c.storage().peak_total_bits);
    t
}

/// Communication-cost table: delivered messages per solo write and per
/// solo read, by channel direction, for every implemented algorithm.
pub fn traffic_table() -> Table {
    use shmem_algorithms::reg::RegInv;
    use shmem_sim::{Node, Protocol, TrafficCounters};

    let mut t = Table::new(
        "Communication cost per operation (N=5): delivered messages",
        &[
            "algorithm",
            "op",
            "client->server",
            "server->client",
            "gossip",
            "total",
        ],
    );
    let spec = ValueSpec::from_bits(64.0);

    fn measure<P>(sim: &mut Sim<P>, client: u32, inv: RegInv) -> TrafficCounters
    where
        P: Protocol<Inv = RegInv, Resp = shmem_algorithms::reg::RegResp>,
        P::Server: Node<P>,
    {
        let before = sim.traffic();
        sim.invoke(ClientId(client), inv).expect("invoke");
        sim.run_until_op_completes(ClientId(client))
            .expect("completes");
        sim.run_to_quiescence().expect("drains");
        let after = sim.traffic();
        TrafficCounters {
            client_to_server: after.client_to_server - before.client_to_server,
            server_to_client: after.server_to_client - before.server_to_client,
            server_to_server: after.server_to_server - before.server_to_server,
        }
    }

    fn rows<P>(t: &mut Table, name: &str, sim: &mut Sim<P>)
    where
        P: Protocol<Inv = RegInv, Resp = shmem_algorithms::reg::RegResp>,
        P::Server: Node<P>,
    {
        let w = measure(sim, 0, RegInv::Write(7));
        let r = measure(sim, 1, RegInv::Read);
        for (op, c) in [("write", w), ("read", r)] {
            t.push(vec![
                name.to_string(),
                op.to_string(),
                c.client_to_server.to_string(),
                c.server_to_client.to_string(),
                c.server_to_server.to_string(),
                c.total().to_string(),
            ]);
        }
    }

    rows(&mut t, "ABD (MWMR)", &mut abd_world(5, 2, spec));
    rows(&mut t, "ABD (SWMR)", &mut swmr_world(5, 2, spec));
    rows(&mut t, "ABD (gossip)", &mut gossip_world(2, spec));
    rows(&mut t, "CAS", &mut cas_world(5, 1, 2, spec));
    rows(&mut t, "Hashed CAS", &mut hashed_world(2, spec));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_table_classifies_all_algorithms() {
        let t = phases_table();
        assert_eq!(t.rows.len(), 5);
        let by_name = |n: &str| t.rows.iter().find(|r| r[0].starts_with(n)).unwrap();
        assert_eq!(by_name("ABD (MWMR)")[1], "2");
        assert_eq!(by_name("ABD (SWMR)")[1], "1");
        assert_eq!(by_name("CAS")[1], "3");
        assert_eq!(by_name("Hashed CAS")[2], "2");
        assert_eq!(by_name("Hashed CAS")[3], "false");
        assert!(t.rows.iter().filter(|r| r[3] == "true").count() == 4);
    }

    #[test]
    fn workloads_table_measures_nu() {
        let t = workloads_table(7);
        assert_eq!(t.rows.len(), 4);
        // The bursty workloads hit nu = 3.
        assert_eq!(t.rows[0][4], "3");
        assert_eq!(t.rows[1][4], "3");
        // The crashy workload leaves 3 ops incomplete.
        let crashy = &t.rows[3];
        let invoked: u32 = crashy[2].parse().unwrap();
        let completed: u32 = crashy[3].parse().unwrap();
        assert_eq!(invoked - completed, 3);
    }

    #[test]
    fn traffic_table_shapes() {
        let t = traffic_table();
        assert_eq!(t.rows.len(), 10);
        let row = |name: &str, op: &str| {
            t.rows
                .iter()
                .find(|r| r[0] == name && r[1] == op)
                .unwrap_or_else(|| panic!("{name}/{op}"))
        };
        // MWMR ABD write: query round (5 + 5) + store round (5 + 5) = 20.
        assert_eq!(row("ABD (MWMR)", "write")[5], "20");
        // SWMR write skips the query: store round only = 10.
        assert_eq!(row("ABD (SWMR)", "write")[5], "10");
        // Gossip variant generates server-to-server traffic on writes.
        assert_ne!(row("ABD (gossip)", "write")[4], "0");
        // CAS writes run three rounds = 30; hashed CAS four = 40.
        assert_eq!(row("CAS", "write")[5], "30");
        assert_eq!(row("Hashed CAS", "write")[5], "40");
        // No plain algorithm gossips.
        assert_eq!(row("CAS", "read")[4], "0");
    }
}
