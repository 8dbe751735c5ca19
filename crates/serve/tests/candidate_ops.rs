//! `AddCandidate` and `Accuracies` over a real connection: candidates come
//! back in add order, scored bit for bit as `LearnedCircuit::accuracy`
//! scores them, `SelectBest` picks the best of them, and a candidate the
//! session cannot take is refused with a structured status.

use lsml_aig::Aig;
use lsml_core::problem::LearnedCircuit;
use lsml_pla::{Dataset, Pattern};
use lsml_serve::client::{Client, ClientError};
use lsml_serve::protocol::Status;
use lsml_serve::server::{Server, ServerConfig};

const NUM_INPUTS: usize = 4;

/// Every pattern over four inputs, labelled `(x0 & x1) | x2`.
fn full_dataset() -> Dataset {
    let mut ds = Dataset::new(NUM_INPUTS);
    for m in 0..1u64 << NUM_INPUTS {
        let p = Pattern::from_index(m, NUM_INPUTS);
        let label = (p.get(0) && p.get(1)) || p.get(2);
        ds.push(p, label);
    }
    ds
}

/// The three candidates, in add order: `x0 & x1` (10 of 16 right), the
/// target itself (16 of 16) and `x2` (14 of 16).
fn candidates() -> Vec<Aig> {
    let build = |f: fn(&mut Aig) -> lsml_aig::Lit| {
        let mut g = Aig::new(NUM_INPUTS);
        let out = f(&mut g);
        g.add_output(out);
        g
    };
    vec![
        build(|g| {
            let (a, b) = (g.input(0), g.input(1));
            g.and(a, b)
        }),
        build(|g| {
            let (a, b, c) = (g.input(0), g.input(1), g.input(2));
            let ab = g.and(a, b);
            g.or(ab, c)
        }),
        build(|g| g.input(2)),
    ]
}

fn assert_refused(result: Result<u32, ClientError>, status: Status) {
    match result {
        Err(ClientError::Server(s, _)) => assert_eq!(s, status),
        other => panic!("expected {status:?}, got {other:?}"),
    }
}

#[test]
fn candidates_are_scored_selected_and_refused() {
    let server = Server::start(ServerConfig::for_tests()).expect("start");
    let addr = server.local_addr();
    let valid = full_dataset();

    // No dataset on this connection yet: a well-formed candidate has no
    // batch to join.
    let mut fresh = Client::connect(addr).expect("connect");
    assert_refused(fresh.add_candidate(&candidates()[0]), Status::Error);

    let mut c = Client::connect(addr).expect("connect");
    c.load_dataset(&full_dataset(), &valid, 7, 0).expect("load");
    let cands = candidates();
    for (i, g) in cands.iter().enumerate() {
        assert_eq!(c.add_candidate(g).expect("add"), i as u32);
    }
    let accs = c.accuracies().expect("accuracies");
    assert_eq!(accs.len(), cands.len());
    for (acc, g) in accs.iter().zip(&cands) {
        let expect = LearnedCircuit::new(g.clone(), "local").accuracy(&valid);
        assert_eq!(acc.to_bits(), expect.to_bits());
    }
    assert_eq!(accs, [10.0 / 16.0, 1.0, 14.0 / 16.0]);

    let best = c.select_best(0).expect("select_best");
    assert!(!best.partial);
    assert_eq!(best.accuracy, 1.0);
    for m in 0..1u64 << NUM_INPUTS {
        let bits: Vec<bool> = (0..NUM_INPUTS).map(|i| (m >> i) & 1 == 1).collect();
        assert_eq!(
            best.aig.eval(&bits),
            cands[1].eval(&bits),
            "pattern {m:04b}"
        );
    }

    // A candidate over the wrong inputs, or with two outputs, is malformed;
    // neither joins the batch.
    let mut narrow = Aig::new(NUM_INPUTS - 1);
    let x = narrow.input(0);
    narrow.add_output(x);
    assert_refused(c.add_candidate(&narrow), Status::Malformed);
    let mut two = cands[1].clone();
    let y = two.input(3);
    two.add_output(y);
    assert_refused(c.add_candidate(&two), Status::Malformed);
    assert_eq!(c.accuracies().expect("accuracies").len(), cands.len());

    server.shutdown_and_join();
}
