// must-fail: disallowed method `std::net::TcpStream::connect_timeout`
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn main() {
    let addr = SocketAddr::from(([127, 0, 0, 1], 9));
    println!("{:?}", TcpStream::connect_timeout(&addr, Duration::from_millis(1)).is_ok());
}
