//! ULI edge cases through the full engine (CorePort + sequencer + network),
//! not just the network model: NACK-on-disabled-receiver retry, the
//! one-request-in-flight limit, and polling a response after the victim has
//! already retired.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bigtiny_engine::{run_system, FlightKind, SystemConfig, UliOutcome, Worker};

/// A thief whose first request is NACKed (receiver still disabled) succeeds
/// by retrying once the victim has enabled reception and gets the handler's
/// response back.
#[test]
fn nack_on_disabled_receiver_then_retry_gets_served() {
    let config = SystemConfig::o3(2);
    let first_outcome = Arc::new(AtomicU64::new(0));
    let first = Arc::clone(&first_outcome);

    let victim: Worker = Box::new(|port| {
        // Stay disabled long enough that the thief's first send NACKs.
        port.idle(200);
        port.set_uli_handler(Box::new(|port, msg| {
            port.uli_send_response(msg.from, msg.payload + 1);
        }));
        port.uli_enable();
        while !port.is_done() {
            port.uli_poll();
            port.idle(5);
        }
    });
    let thief: Worker = Box::new(move |port| {
        let mut sends = 0u64;
        loop {
            sends += 1;
            match port.uli_send_request(0, 41) {
                UliOutcome::Sent => break,
                UliOutcome::Nack { .. } => {
                    if first.load(Ordering::Relaxed) == 0 {
                        first.store(1, Ordering::Relaxed); // first attempt NACKed
                    }
                    port.idle(20);
                }
                UliOutcome::Dead { .. } => panic!("no crash plan armed"),
            }
        }
        assert!(sends > 1, "first send must have been NACKed and retried");
        let resp = loop {
            if let Some(m) = port.uli_poll_response() {
                break m;
            }
            port.idle(5);
        };
        assert_eq!(resp.payload, 42, "handler response made it back");
        port.set_done();
    });
    run_system(&config, vec![victim, thief]);
    assert_eq!(first_outcome.load(Ordering::Relaxed), 1, "first attempt observed a NACK");
}

/// Receivers accept one request in flight: with a pending unserviced
/// request, a second thief is NACKed even though the receiver is enabled.
#[test]
fn one_in_flight_request_per_receiver() {
    let config = SystemConfig::o3(3);
    // Victim is core 0 so its enable sequences before the thieves' sends
    // (ties at cycle 0 break by core id); thief 1 sends before thief 2.
    let victim: Worker = Box::new(|port| {
        port.uli_enable(); // enabled, but no handler: the request stays pending
        while !port.is_done() {
            port.idle(10);
        }
    });
    let thief1: Worker = Box::new(|port| {
        assert_eq!(port.uli_send_request(0, 1), UliOutcome::Sent, "slot was free");
        while !port.is_done() {
            port.idle(10);
        }
    });
    let thief2: Worker = Box::new(|port| {
        port.idle(50); // well after thief 1's request is in flight
        assert!(
            matches!(port.uli_send_request(0, 2), UliOutcome::Nack { .. }),
            "second in-flight request must NACK"
        );
        port.set_done();
    });
    run_system(&config, vec![victim, thief1, thief2]);
}

/// A response sent just before the victim disables its receiver and retires
/// is still collectable by the thief arbitrarily later — victim death never
/// strands a response on the wire.
#[test]
fn uli_poll_response_after_victim_death() {
    let config = SystemConfig::o3(2);
    let served = Arc::new(AtomicBool::new(false));
    let served_v = Arc::clone(&served);

    let victim: Worker = Box::new(move |port| {
        let flag = Arc::clone(&served_v);
        port.set_uli_handler(Box::new(move |port, msg| {
            port.uli_send_response(msg.from, msg.payload * 2);
            flag.store(true, Ordering::Relaxed);
        }));
        port.uli_enable();
        while !served_v.load(Ordering::Relaxed) {
            port.uli_poll();
            port.idle(5);
        }
        port.uli_disable();
        // Worker returns: the core retires from the sequencer ("dies").
    });
    let thief: Worker = Box::new(|port| {
        loop {
            match port.uli_send_request(0, 21) {
                UliOutcome::Sent => break,
                UliOutcome::Nack { .. } => port.idle(10),
                UliOutcome::Dead { .. } => panic!("no crash plan armed"),
            }
        }
        // Let the victim respond, tear down, and retire before polling.
        port.idle(10_000);
        let resp = loop {
            if let Some(m) = port.uli_poll_response() {
                break m;
            }
            port.idle(5);
        };
        assert_eq!((resp.from, resp.payload), (0, 42));
        port.set_done();
    });
    run_system(&config, vec![victim, thief]);
    assert!(served.load(Ordering::Relaxed));
}

/// Flight events describing a sequenced op are stamped at its grant clock.
/// Here core 0's own request send also admits core 1's pending request:
/// core 0's log must hold `uli_req_send` at the send's grant cycle, before
/// the handler's `uli_req_recv`, with the whole log in time order.
#[test]
fn send_that_admits_a_request_is_logged_before_its_handler() {
    let mut config = SystemConfig::o3(2);
    config.flight_history = true;
    let uli_cost = config.uli_cost_big;
    // Both cores answer requests. Core 1 sends after 10 cycles; core 0
    // spends 100 cycles of local time first, so core 1's request is waiting
    // when core 0's send enters the sequencer and is taken in its section.
    let worker = |to: usize, local: u64, send_at: Arc<AtomicU64>| -> Worker {
        Box::new(move |port| {
            port.set_uli_handler(Box::new(|p, m| p.uli_send_response(m.from, 0)));
            port.uli_enable();
            port.idle(local);
            send_at.store(port.now(), Ordering::Relaxed);
            assert_eq!(port.uli_send_request(to, 0), UliOutcome::Sent);
            while port.uli_poll_response().is_none() {
                port.idle(5);
            }
        })
    };
    let send_at = Arc::new(AtomicU64::new(0));
    let core1 = worker(0, 10, Arc::new(AtomicU64::new(0)));
    let r = run_system(&config, vec![worker(1, 100, Arc::clone(&send_at)), core1]);
    let send = send_at.load(Ordering::Relaxed);
    for (what, log) in [("history", &r.flight_history[0]), ("ring", &r.flight[0])] {
        let find = |want: fn(&FlightKind) -> bool| {
            log.iter().position(|e| want(&e.kind)).unwrap_or_else(|| panic!("{what}: {log:?}"))
        };
        let sent = find(|k| matches!(k, FlightKind::UliReqSend { to: 1 }));
        let recv = find(|k| matches!(k, FlightKind::UliReqRecv { from: 1 }));
        assert_eq!(log[sent].time, send, "{what}: send stamped at its grant cycle");
        assert_eq!(log[recv].time, send + uli_cost, "{what}: handler admitted by the send");
        assert!(sent < recv, "{what}: the send precedes the handler it admitted");
        assert!(log.windows(2).all(|w| w[0].time <= w[1].time), "{what}: out of time order");
    }
}
