"""The sans-IO client session, fed reply frames by hand: no transport."""

import numpy as np
import pytest

from repro.core.zltp import messages as msg
from repro.core.zltp.client import ZltpClientSession
from repro.core.zltp.modes import (
    MODE_ENCLAVE,
    MODE_PIR2,
    MODE_PIR_LWE,
    LweModeServer,
)
from repro.crypto.lwe import LweParams
from repro.errors import (
    CryptoError,
    NegotiationError,
    OverloadError,
    ProtocolError,
)
from repro.pir.codec import pack_u32
from repro.pir.database import BlobDatabase

SALT = b"client-session"
BLOB = 16


def server_hello(party, blob_size=BLOB, **params):
    mode_params = {"party": party} if party is not None else {}
    mode_params.update(params)
    return msg.encode_message(msg.ServerHello(
        blob_size=blob_size, domain_bits=6, mode=MODE_PIR2, probes=2,
        salt=SALT, mode_params=mode_params))


def response(request_id, fill):
    return msg.encode_message(
        msg.GetResponse(request_id=request_id, payload=bytes([fill]) * BLOB))


def overload():
    return msg.encode_message(msg.ErrorMessage("overload", "queue full"))


def connected_session():
    session = ZltpClientSession(2, supported_modes=[MODE_PIR2])
    assert session.receive_hellos([server_hello(0), server_hello(1)]) == [0, 1]
    assert session.connected
    return session


def blob(slot):
    return f"value-{slot}".encode().ljust(BLOB, b"\0")


def lwe_session():
    """An ``LweModeServer`` over 2^6 x 16 B and a pir-lwe client session
    set up from its own hello and set-up payloads."""
    db = BlobDatabase(6, BLOB)
    for slot in range(db.n_slots):
        db.set_slot(slot, blob(slot))
    server = LweModeServer(db, params=LweParams(n=64))
    session = ZltpClientSession(1, supported_modes=[MODE_PIR_LWE],
                                rng=np.random.default_rng(8))
    session.receive_hellos([msg.encode_message(msg.ServerHello(
        blob_size=BLOB, domain_bits=6, mode=MODE_PIR_LWE, salt=SALT,
        mode_params=server.hello_params()))])
    session.receive_setup(msg.encode_message(
        msg.SetupResponse(params=server.setup())))
    return server, session


def lwe_reply(server, frame):
    request = msg.decode_message(frame)
    (payload,) = server.answer_batch([request.payload])
    return msg.encode_message(
        msg.GetResponse(request_id=request.request_id, payload=payload))


def lwe_burst(server, session, slots):
    for frame in session.get_requests(slots)[0]:
        session.receive_get(0, lwe_reply(server, frame))
    return session.get_results()


class TestHandshake:
    def test_hello_offers_the_supported_modes(self):
        session = ZltpClientSession(2, supported_modes=[MODE_PIR2])
        hello = msg.decode_message(session.hello())
        assert hello.supported_modes == [MODE_PIR2]
        assert not session.connected

    def test_endpoints_are_ordered_by_party(self):
        session = ZltpClientSession(2, supported_modes=[MODE_PIR2])
        assert session.receive_hellos([server_hello(1), server_hello(0)]) \
            == [1, 0]
        assert (session.mode, session.blob_size, session.probes) == \
            (MODE_PIR2, BLOB, 2)

    def test_non_server_hello_reply_rejected(self):
        session = ZltpClientSession(2, supported_modes=[MODE_PIR2])
        setup = msg.encode_message(msg.SetupResponse(params={}))
        with pytest.raises(ProtocolError, match="expected ServerHello"):
            session.receive_hellos([server_hello(0), setup])
        assert not session.connected

    def test_error_reply_raises(self):
        session = ZltpClientSession(2, supported_modes=[MODE_PIR2])
        refused = msg.encode_message(msg.ErrorMessage("negotiation", "no"))
        with pytest.raises(ProtocolError, match="negotiation"):
            session.receive_hellos([refused, server_hello(1)])
        with pytest.raises(OverloadError):
            session.receive_hellos([server_hello(0), overload()])

    def test_disagreeing_geometry_rejected(self):
        session = ZltpClientSession(2, supported_modes=[MODE_PIR2])
        with pytest.raises(ProtocolError, match="geometry"):
            session.receive_hellos([server_hello(0),
                                    server_hello(1, blob_size=2 * BLOB)])

    def test_partyless_hello_rejected(self):
        """A pir2 hello whose mode_params omit "party" must fail negotiation
        with a clear error, not crash sorting None against int."""
        session = ZltpClientSession(2, supported_modes=[MODE_PIR2])
        with pytest.raises(NegotiationError, match="integer party"):
            session.receive_hellos([server_hello(None), server_hello(None)])

    def test_duplicate_party_rejected(self):
        session = ZltpClientSession(2, supported_modes=[MODE_PIR2])
        with pytest.raises(NegotiationError, match="parties"):
            session.receive_hellos([server_hello(0), server_hello(0)])

    def test_endpoint_count_enforced(self):
        session = ZltpClientSession(1, supported_modes=[MODE_PIR2])
        with pytest.raises(NegotiationError, match="needs 2"):
            session.receive_hellos([server_hello(0)])

    def test_no_endpoints_rejected(self):
        with pytest.raises(ProtocolError):
            ZltpClientSession(0)


class TestHostileHello:
    """A ServerHello is peer input: a field or mode parameter of the wrong
    type is a typed refusal, never a TypeError, KeyError or AttributeError
    from whatever reads it later."""

    @pytest.mark.parametrize("fields", [
        {"mode_params": {}},
        {"mode_params": {"session_key": 5}},
        {"domain_bits": None},
        {"probes": "2"},
        {"mode_params": [1]},
        {"blob_size": "x"},
        {"salt": 3},
        {"blob_size": 0},
        {"blob_size": -5},
        {"mode_params": {"session_key": bytes(32), "extra": [1]}},
    ], ids=["no-session-key", "int-session-key", "none-domain-bits",
            "str-probes", "list-mode-params", "str-blob-size", "int-salt",
            "zero-blob-size", "negative-blob-size", "nested-mode-params"])
    def test_mistyped_enclave_hello(self, fields):
        hello = dict(blob_size=BLOB, domain_bits=6, mode=MODE_ENCLAVE,
                     probes=1, salt=SALT,
                     mode_params={"session_key": bytes(32)})
        hello.update(fields)
        session = ZltpClientSession(1, supported_modes=[MODE_ENCLAVE])
        with pytest.raises(ProtocolError):
            session.receive_hellos([msg.encode_message(
                msg.ServerHello(**hello))])
            session.get_requests([1])

    @pytest.mark.parametrize("domain_bits", [-1, 64])
    def test_lwe_domain_out_of_range(self, domain_bits):
        """The probe hash refuses the geometry before pir-lwe sizes its
        public matrix by it."""
        session = ZltpClientSession(1, supported_modes=[MODE_PIR_LWE])
        session.receive_hellos([msg.encode_message(msg.ServerHello(
            blob_size=BLOB, domain_bits=domain_bits, mode=MODE_PIR_LWE,
            salt=SALT, mode_params={"n": 16, "p": 256, "noise_bound": 4}))])
        setup = {"hint": pack_u32(np.zeros((BLOB, 16), np.uint32)),
                 "a_seed": 1}
        with pytest.raises(CryptoError, match="domain_bits"):
            session.receive_setup(msg.encode_message(
                msg.SetupResponse(params=setup)))
        assert not session.connected

    @pytest.mark.parametrize("blob_size", [0, -5])
    def test_pir2_blob_size_not_positive(self, blob_size):
        session = ZltpClientSession(2, supported_modes=[MODE_PIR2])
        with pytest.raises(ProtocolError, match="blob_size"):
            session.receive_hellos([server_hello(0, blob_size),
                                    server_hello(1, blob_size)])
        assert not session.connected

    def test_pir2_one_byte_blobs_accepted(self):
        session = ZltpClientSession(2, supported_modes=[MODE_PIR2])
        session.receive_hellos([server_hello(0, 1), server_hello(1, 1)])
        assert session.connected

    def test_bool_parties_rejected(self):
        session = ZltpClientSession(2, supported_modes=[MODE_PIR2])
        with pytest.raises(NegotiationError, match="integer party"):
            session.receive_hellos([server_hello(False), server_hello(True)])


class TestResume:
    def test_matching_endpoint_resumes(self):
        session = connected_session()
        hello = msg.decode_message(session.resume_hello())
        assert hello.supported_modes == [MODE_PIR2]
        session.check_resume(1, server_hello(1))

    def test_wrong_party_rejected(self):
        session = connected_session()
        with pytest.raises(ProtocolError, match="announced party 0"):
            session.check_resume(1, server_hello(0))

    def test_bool_party_rejected(self):
        session = connected_session()
        with pytest.raises(ProtocolError, match="party must be int"):
            session.check_resume(1, server_hello(True))

    def test_changed_geometry_rejected(self):
        session = connected_session()
        with pytest.raises(ProtocolError, match="disagrees"):
            session.check_resume(0, server_hello(0, blob_size=2 * BLOB))

    def test_error_reply_rejected(self):
        session = connected_session()
        with pytest.raises(ProtocolError, match="overload"):
            session.check_resume(0, overload())


class TestBurst:
    def test_replies_decode_in_slot_order(self):
        session = connected_session()
        bursts = session.get_requests([3, 5])
        assert [len(burst) for burst in bursts] == [2, 2]
        ids = [[msg.decode_message(f).request_id for f in burst]
               for burst in bursts]
        assert ids == [[0, 1], [0, 1]]
        for endpoint, fills in ((0, (1, 2)), (1, (4, 8))):
            for request_id, fill in enumerate(fills):
                session.receive_get(endpoint, response(request_id, fill))
        assert session.get_results() == [bytes([5]) * BLOB,
                                         bytes([10]) * BLOB]
        # The next burst continues the request ids.
        assert msg.decode_message(
            session.get_requests([1])[0][0]).request_id == 2

    def test_wrong_request_id_rejected(self):
        session = connected_session()
        session.get_requests([3, 5])
        session.receive_get(0, response(0, 1))
        with pytest.raises(ProtocolError, match="response id 7"):
            session.receive_get(0, response(7, 1))

    def test_overload_drains_the_burst_then_raises(self):
        session = connected_session()
        session.get_requests([3, 5])
        session.receive_get(0, response(0, 1))
        session.receive_get(0, overload())
        with pytest.raises(ProtocolError, match="outstanding"):
            session.get_results()
        session.receive_get(1, overload())
        session.receive_get(1, overload())
        with pytest.raises(OverloadError, match="shed 3 of 4"):
            session.get_results()
        # The streams stayed aligned: the session serves the next burst.
        session.get_requests([1])
        session.receive_get(0, response(2, 1))
        session.receive_get(1, response(2, 3))
        assert session.get_results() == [bytes([2]) * BLOB]

    @pytest.mark.parametrize("shed", [[0, 1], [1]], ids=["fully", "partly"])
    def test_lwe_decodes_after_a_shed_burst(self, shed):
        """A shed burst's masks are never decoded; the bursts after it
        still decode with their own, not with the shed burst's."""
        server, session = lwe_session()
        assert lwe_burst(server, session, [3]) == [blob(3)]
        bursts = session.get_requests([5, 9])
        for index, frame in enumerate(bursts[0]):
            reply = overload() if index in shed else lwe_reply(server, frame)
            session.receive_get(0, reply)
        with pytest.raises(OverloadError, match=f"shed {len(shed)} of 2"):
            session.get_results()
        assert lwe_burst(server, session, [7]) == [blob(7)]
        assert lwe_burst(server, session, [60, 2]) == [blob(60), blob(2)]

    def test_other_error_reply_raises_at_once(self):
        session = connected_session()
        session.get_requests([3])
        protocol = msg.encode_message(msg.ErrorMessage("protocol", "bad key"))
        with pytest.raises(ProtocolError, match="server error protocol"):
            session.receive_get(0, protocol)

    def test_reply_beyond_the_burst_rejected(self):
        session = connected_session()
        session.get_requests([3])
        session.receive_get(0, response(0, 1))
        with pytest.raises(ProtocolError, match="unexpected reply"):
            session.receive_get(0, response(1, 1))

    def test_requests_need_a_connected_session(self):
        session = ZltpClientSession(2, supported_modes=[MODE_PIR2])
        with pytest.raises(ProtocolError, match="not connected"):
            session.get_requests([3])
        connected = connected_session()
        connected.bye()
        with pytest.raises(ProtocolError, match="not connected"):
            connected.candidate_slots("a.example/x")
