//! Fleet quarantine through the public operator surface: strikes,
//! quarantine and `release_device`.

use bios_afe::{Fault, FaultKind, FaultPlan};
use bios_biochem::Analyte;
use bios_instrument::QcGate;
use bios_platform::{PanelSpec, Platform, PlatformBuilder, SessionOptions};
use bios_server::{DiagnosticsServer, NullClock, ServerConfig, ServiceTier, SessionRequest};
use bios_units::Molar;

fn platform() -> Platform {
    PlatformBuilder::new(PanelSpec::paper_fig4())
        .build()
        .expect("build")
}

fn request(device: u64, tier: ServiceTier, seed: u64) -> SessionRequest {
    SessionRequest {
        device,
        tier,
        sample: vec![(Analyte::Glucose, Molar::from_millimolar(3.0))],
        seed,
    }
}

#[test]
fn release_device_edge_cases_are_idempotent_and_reset_strikes() {
    let p = platform();
    let plan = FaultPlan::new(3).with_fault(
        0,
        Fault::immediate(FaultKind::ElectrodeOpen, 1.0).expect("valid"),
    );
    let options = SessionOptions::default()
        .with_fault_plan(plan)
        .with_qc(QcGate::default());
    let config = ServerConfig::default()
        .with_shards(2)
        .with_quarantine_threshold(2);
    let mut server = DiagnosticsServer::with_options(&p, config, options);

    // Releasing a device the server has never seen is a no-op.
    assert!(!server.release_device(9));
    // Any device id routes to a shard; releasing one never seen is a no-op.
    assert!(!server.release_device(u64::MAX));

    // One failed session: a strike, but not yet quarantined.
    server
        .submit(request(9, ServiceTier::Routine, 100))
        .expect("admitted");
    server.run_until_idle(&NullClock, 10_000);
    assert!(server.quarantined_devices().is_empty());
    // Releasing a struck-but-not-quarantined device reports false
    // (it was not quarantined) but clears the strike history.
    assert!(!server.release_device(9));
    // After the reset, one more failure is again only strike one —
    // the counter restarted rather than carrying the old strike.
    server
        .submit(request(9, ServiceTier::Routine, 101))
        .expect("admitted");
    server.run_until_idle(&NullClock, 10_000);
    assert!(
        server.quarantined_devices().is_empty(),
        "release must reset strikes, not only quarantine membership"
    );
    // Two consecutive failures after the reset do quarantine.
    server
        .submit(request(9, ServiceTier::Routine, 102))
        .expect("admitted");
    server.run_until_idle(&NullClock, 10_000);
    assert_eq!(server.quarantined_devices(), vec![9]);

    // Double release: first returns true, second is a no-op false.
    assert!(server.release_device(9));
    assert!(!server.release_device(9));
    server
        .submit(request(9, ServiceTier::Routine, 103))
        .expect("released device admits again");
}
