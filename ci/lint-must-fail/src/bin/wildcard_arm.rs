// must-fail: wildcard match will also match any future added variants
// header of: serve wire
#![deny(clippy::wildcard_enum_match_arm)]

#[derive(Debug)]
enum Verb {
    Ping,
    Stats,
    Shutdown,
}

fn main() {
    for verb in [Verb::Ping, Verb::Stats, Verb::Shutdown] {
        match verb {
            Verb::Ping => println!("pong"),
            other => println!("{other:?}"),
        }
    }
}
