//! Seeded violation: `Msg` encodes through its borrowed view `View`, whose
//! encoder drops tag 2 that `Msg::decode` still matches. The envelope tag 9
//! is written by a free function the owner's encoder calls, and counts.

impl View<'_> {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        match *self {
            View::Ping => buf.put_u8(0),
            View::Data(d) => {
                buf.put_u8(1);
                buf.put_slice(d);
            }
        }
    }
}

impl Msg {
    fn as_view(&self) -> View<'_> {
        match self {
            Msg::Ping | Msg::Pong => View::Ping,
            Msg::Data(d) => View::Data(d),
            Msg::Wrapped(inner) => inner.as_view(),
        }
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        let mut layer = self;
        while let Msg::Wrapped(inner) = layer {
            put_wrapper(buf);
            layer = inner;
        }
        layer.as_view().encode_into(buf);
    }

    fn decode(buf: &mut Reader) -> Option<Msg> {
        let tag = buf.get_u8()?;
        match tag {
            0 => Some(Msg::Ping),
            1 => Some(Msg::Data(buf.rest())),
            2 => Some(Msg::Pong),
            9 => Some(Msg::Wrapped(Box::new(Msg::decode(buf)?))),
            _ => None,
        }
    }
}

fn put_wrapper(buf: &mut Vec<u8>) {
    buf.put_u8(9);
}
