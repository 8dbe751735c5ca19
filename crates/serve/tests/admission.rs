//! Admission control under lockstep traffic: a request's tokens are
//! refunded before its response is sent, so a client that waits for each
//! reply is never shed, even with a one-token budget.

use loom::sync::atomic::Ordering;
use lsml_serve::client::{Client, ClientError};
use lsml_serve::protocol::Status;
use lsml_serve::server::{Server, ServerConfig};

#[test]
fn lockstep_clients_are_never_shed() {
    let mut cfg = ServerConfig::for_tests();
    cfg.client_tokens = 1;
    let server = Server::start(cfg).expect("start");
    let addr = server.local_addr();
    // 20,000 pings over four concurrent lockstep clients keep both workers
    // busy, so a worker is often preempted between sending a response and
    // refunding its tokens if it does them in that order; one client alone
    // hits that window only now and then.
    let overloaded: usize = std::thread::scope(|s| {
        let clients: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    (0..5_000)
                        .filter(|_| match c.ping() {
                            Ok(()) => false,
                            Err(ClientError::Server(Status::Overloaded, _)) => true,
                            Err(e) => panic!("ping died: {e}"),
                        })
                        .count()
                })
            })
            .collect();
        clients.into_iter().map(|t| t.join().expect("client")).sum()
    });
    assert_eq!(overloaded, 0, "lockstep pings were shed");
    assert_eq!(server.counters().shed.load(Ordering::Relaxed), 0);
    server.shutdown_and_join();
}
