//! A streaming campaign feeds its engine every row it ingests: nothing
//! is buffered between them, so nothing can be dropped, fresh or
//! resumed.

use clasp_core::campaign::{Campaign, CampaignConfig};
use clasp_core::world::World;
use clasp_stream::EngineConfig;

#[test]
fn streaming_engine_sees_every_ingested_row() {
    let world = World::tiny(121);
    let campaign = Campaign::new(&world, CampaignConfig::small(121));
    let mut engine = campaign.stream_engine(EngineConfig::paper());
    let full = campaign
        .runner()
        .streaming(&mut engine)
        .run()
        .expect("fresh runs cannot fail");
    assert!(full.db.points_written > 0);
    assert_eq!(engine.events_seen(), full.db.points_written);

    // Resumed: a fresh engine sees the replayed rows and then the rest,
    // each once, so the count and every counter come out the same.
    let ckpt = &full.checkpoints[0];
    let mut resumed = campaign.stream_engine(EngineConfig::paper());
    let result = campaign
        .runner()
        .resume_from(ckpt)
        .streaming(&mut resumed)
        .run()
        .expect("resume from own checkpoint");
    assert_eq!(resumed.events_seen(), result.db.points_written);
    assert_eq!(resumed.stats(), engine.stats());
}
