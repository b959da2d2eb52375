"""Golden digests: stdout followed by the --report bytes.

The digests of passing `all` runs were recorded before the tensor kernels
were rewritten to walk stored components only; every later change to the
kernels must keep these bytes.  Keys name a catalog entry, a file of
docs/conformance/valid, or a gl(n) problem from the benchmark's generator
(bench/workloads.gl_problem), never a path.

The digests of failing single commands were recorded before integer
coefficients replaced integral Fractions in the polynomial core.  They pin
the text a passing run never prints: nonzero residuals, rational ones among
them, and their sample values.  The digests of refusals (a bialgebra that
fails Jacobi, a non-Poisson pi under a map, an action that does not preserve
omega) were recorded while the lifted checks still refused by raising.  The
digests under a rational box (``--box=-1/3,5/7``, ``--box=-7/2,9/4``) were
recorded while sampling still evaluated every point as a Fraction.  The
level-set digests (a failing, an informative and a two-component passing
``hamiltonian`` run) were recorded while the tangency check still ran
Fraction RREF and a kernel basis at every sample.  The digests of ``verify-lemma`` under a
wrong complete-lift kernel (doubled, negated) were recorded while each probe
of the lemma still built two dense coordinate maps on T*TM.  The digests of
``certify-pgmap`` on bialgebras failing a structure check (a non-cocycle, a
non-co-Jacobi and a non-Jacobi one) were recorded while the bracket was
still stored as one dense coefficient vector per pair.  The gl(4) digests
(``all`` clean and on the perturbed map), whose tangent and lift-identity
universes have 32 and 64 variables, were recorded while printing and the
identity's v -> qdot renaming still expanded every monomial key into a dense
exponent tuple.  The digests of the refusal and skip routes of the lifted
checks (``all`` on a non-Poisson pi under a map, a bialgebra failing
Jacobi, an action that does not preserve omega and a level set whose
kernel is not spanned; the lifted commands one at a time on the first two)
were recorded while each command still had its own handler and each lifted
check its own require-then-report wrapper.  The digest of
``huge-coefficient.pf``, whose coefficient has more decimal digits than
the interpreter's default integer-to-text limit, was recorded with that
limit lifted, before printing converted such integers itself.

Every ``all`` digest, and those of ``symplectic`` on an action that does
not preserve omega and of ``tangent-generator`` on an uncertified map, were
re-recorded when ``oracle-fd`` became exact (a new identity, residuals by
polynomial and variable, no float sample) and every row that runs began to
give one report (the refusals of ``tangent-generator-fields`` and
``cotangent-momentum-relation``); read back with ``parse_reports``, they
differ from the bytes before only in those records, under
``PYTHONHASHSEED`` 0 and 1.  ``all`` on the cubic variants of
``conftest.QUADRATIC`` is among the failing runs: its ``oracle-fd`` passes,
and the map or the momentum map fails.

``lift``, ``verify-lift`` and ``all`` on a non-Poisson bivector raised
before they refused; their digests were recorded with the refusal, so the
test also pins their exit code and verdicts.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from poissonlift.cli import main
from poissonlift.report import parse_reports

from conftest import CUBIC_EDITS, QUADRATIC, gl_problem, use_wrong_lift_kernel

VALID = Path(__file__).resolve().parent.parent / "docs" / "conformance" / "valid"

FLAGS = {
    "default": [],
    "samples-7-seed-3": ["--samples", "7", "--seed", "3"],
    "rational-box-samples-13": ["--box=-1/3,5/7", "--samples", "13"],
    "wide-box-seed-5": ["--box=-7/2,9/4", "--seed", "5"],
}

DIGESTS = {
    ("catalog:aff1-cobracket", "default"): "760e0b8ea49ae1284833b48ff0cffcbfb1f32684e526bd1bdbfd96ee86f0860f",
    ("catalog:aff1-cobracket", "samples-7-seed-3"): "760e0b8ea49ae1284833b48ff0cffcbfb1f32684e526bd1bdbfd96ee86f0860f",
    ("catalog:canonical-r2-rotation", "default"): "71739fed8c50429b91e5de17e611492ce2227b168a3ba68f16ee4a634cb6d65a",
    ("catalog:canonical-r2-rotation", "samples-7-seed-3"): "71739fed8c50429b91e5de17e611492ce2227b168a3ba68f16ee4a634cb6d65a",
    ("catalog:dressing-linearized", "default"): "4fc503bfda22ff590b175a6673034223023c81c1e88595d0a22b32052c57ea53",
    ("catalog:dressing-linearized", "samples-7-seed-3"): "4fc503bfda22ff590b175a6673034223023c81c1e88595d0a22b32052c57ea53",
    ("catalog:hamiltonian-level-set", "default"): "358c45ac9b2a07e3f04be11f394b011aa3fc3535befffa534c903895fa53f0e4",
    ("catalog:hamiltonian-level-set", "samples-7-seed-3"): "358c45ac9b2a07e3f04be11f394b011aa3fc3535befffa534c903895fa53f0e4",
    ("catalog:so3-coadjoint", "default"): "bbc042f1b11e3a907ece536e8a083de02fbffc5d860901243c9bef0799cde318",
    ("catalog:so3-coadjoint", "samples-7-seed-3"): "bbc042f1b11e3a907ece536e8a083de02fbffc5d860901243c9bef0799cde318",
    ("valid:bracket-both-orders.pf", "default"): "4cc21cff206fb9168358250e7f80bd7a819b015084cb5f33ee75bd8332279b4c",
    ("valid:bracket-both-orders.pf", "samples-7-seed-3"): "4cc21cff206fb9168358250e7f80bd7a819b015084cb5f33ee75bd8332279b4c",
    ("valid:full-blocks.pf", "default"): "760e0b8ea49ae1284833b48ff0cffcbfb1f32684e526bd1bdbfd96ee86f0860f",
    ("valid:full-blocks.pf", "samples-7-seed-3"): "760e0b8ea49ae1284833b48ff0cffcbfb1f32684e526bd1bdbfd96ee86f0860f",
    ("valid:huge-coefficient.pf", "default"): "034f83d646f3b5a9a52524830c9106eb40d647b40e2e3699a181958d19a4f217",
    ("valid:huge-coefficient.pf", "samples-7-seed-3"): "034f83d646f3b5a9a52524830c9106eb40d647b40e2e3699a181958d19a4f217",
    ("valid:high-degree-pi.pf", "default"): "7c815518dbff5d5460730886971cee9de4e20232b68b7002a393e955f92ae001",
    ("valid:high-degree-pi.pf", "samples-7-seed-3"): "7c815518dbff5d5460730886971cee9de4e20232b68b7002a393e955f92ae001",
    ("valid:minimal-poisson.pf", "default"): "5a49d92d15aca9a329a279feb5ff57fdd4877a3720b04a1793adde790b6f031b",
    ("valid:minimal-poisson.pf", "samples-7-seed-3"): "5a49d92d15aca9a329a279feb5ff57fdd4877a3720b04a1793adde790b6f031b",
    ("valid:momentum-levelset.pf", "default"): "358c45ac9b2a07e3f04be11f394b011aa3fc3535befffa534c903895fa53f0e4",
    ("valid:momentum-levelset.pf", "samples-7-seed-3"): "358c45ac9b2a07e3f04be11f394b011aa3fc3535befffa534c903895fa53f0e4",
    ("valid:one-line-blocks.pf", "default"): "4cc21cff206fb9168358250e7f80bd7a819b015084cb5f33ee75bd8332279b4c",
    ("valid:one-line-blocks.pf", "samples-7-seed-3"): "4cc21cff206fb9168358250e7f80bd7a819b015084cb5f33ee75bd8332279b4c",
    ("valid:symplectic-inline.pf", "default"): "d0abc0bd7558a21742166d277b2d51625fa8a29f861c3ce4a8bafffcb2f3bb52",
    ("valid:symplectic-inline.pf", "samples-7-seed-3"): "d0abc0bd7558a21742166d277b2d51625fa8a29f861c3ce4a8bafffcb2f3bb52",
    ("valid:symplectic-supplied-inverse.pf", "default"): "1f5fff2ddec822d61087624d674037eb8a7ba9d68652305a6b2ffdd151ad86ce",
    ("valid:symplectic-supplied-inverse.pf", "samples-7-seed-3"): "1f5fff2ddec822d61087624d674037eb8a7ba9d68652305a6b2ffdd151ad86ce",
    ("gl2", "default"): "961b98d3735ba6ef36620c1ffe9a81407a1fb91dc8746a655470420f6c1e87cf",
    ("gl2", "samples-7-seed-3"): "961b98d3735ba6ef36620c1ffe9a81407a1fb91dc8746a655470420f6c1e87cf",
    ("gl3", "default"): "f5617d9d63a0d4dc4909ffb765260fd5f78e7d558d4b49e29904dde6ebea79ff",
    ("gl3", "samples-7-seed-3"): "f5617d9d63a0d4dc4909ffb765260fd5f78e7d558d4b49e29904dde6ebea79ff",
    ("gl4", "default"): "cc991c13c7c7598e8f56fd140f0cb517c6c0f32a17ba69c99ecbdc372553d7ec",
}


# (command, problem, flags) -> digest; every run exits 1
FAILING_DIGESTS = {
    ("all", "gl4-perturbed", "default"): "c7712e89e74150ffae9247cb84c9c5ceb158976f78a95e17aaa5e426b6b8f590",
    ("bracket-closure", "gl2-perturbed", "default"): "bb84699f57a669e3bac30f21975b6f455086cd10be0b6c6fa16a69a881668836",
    ("bracket-closure", "gl2-perturbed", "samples-7-seed-3"): "bb84699f57a669e3bac30f21975b6f455086cd10be0b6c6fa16a69a881668836",
    ("bracket-closure", "gl3-perturbed", "default"): "0fd29283859539baf1d16ba74f6e8403342472d4d8a90d0245b4925b0b356488",
    ("bracket-closure", "gl3-perturbed", "samples-7-seed-3"): "0fd29283859539baf1d16ba74f6e8403342472d4d8a90d0245b4925b0b356488",
    ("bracket-closure", "non-poisson-map", "default"): "a5e22b60ad85ad20436bffd713d4b58c6b5f1cf08f346b2bdbf5e799bf9fe3f3",
    ("bracket-closure", "non-poisson-map", "samples-7-seed-3"): "a5e22b60ad85ad20436bffd713d4b58c6b5f1cf08f346b2bdbf5e799bf9fe3f3",
    ("bracket-closure", "so3-bad-bialgebra", "default"): "c4827dcd2d42ab682715e6a9e1f338d5181c0a0126c4ae8044d7e8a69290858e",
    ("bracket-closure", "so3-bad-bialgebra", "samples-7-seed-3"): "c4827dcd2d42ab682715e6a9e1f338d5181c0a0126c4ae8044d7e8a69290858e",
    ("certify-pgmap", "gl2-perturbed", "default"): "a382cdaba387f6fbe9ac210c640ffec4878074644ef31b677d0c2a308b379de7",
    ("certify-pgmap", "gl2-perturbed", "rational-box-samples-13"): "378d25fedade6de424ff9ff11e1fe82069e5b478904c0cedd8969ee7faa75595",
    ("certify-pgmap", "gl2-perturbed", "samples-7-seed-3"): "3203ed1e908913925cc8ce3c3c3f1718033096b7485c046d47108c291d42df7c",
    ("certify-pgmap", "gl2-perturbed", "wide-box-seed-5"): "77258c5d68af5d91dee7593e6efb106f424c6e4b8c2c3d320e1053b389bc3ba6",
    ("certify-pgmap", "gl3-perturbed", "default"): "2880e7cfc5cc69e0be0c4fed4ad5eb6e3afd82cc08653d7c72987fd9bb30d4e9",
    ("certify-pgmap", "gl3-perturbed", "rational-box-samples-13"): "39f0a6f94940cd391da9b7611055246864b52738d2a07ccc15852d645852959f",
    ("certify-pgmap", "gl3-perturbed", "samples-7-seed-3"): "fc119624f2f2368bfaef77403e106c930c8bbe70a6b365c047c0703ffd9604bd",
    ("certify-pgmap", "gl3-perturbed", "wide-box-seed-5"): "739749d6298beb7fab4be04ab07d611f38416f313c6077f031ddc35bc607cab4",
    ("certify-pgmap", "non-jacobi-rows-out-of-order", "default"): "74a26a3fbfa2a653931f430b7859a3b99bda023cb37878f4d2006caa853cd8f8",
    ("certify-pgmap", "so3-bad-bialgebra", "default"): "9beae4f5109c9a5b3586d3215350f02dc522f244592208f351e463c46a3af7c8",
    ("certify-pgmap", "so3-bad-bialgebra", "samples-7-seed-3"): "9beae4f5109c9a5b3586d3215350f02dc522f244592208f351e463c46a3af7c8",
    ("certify-pgmap", "so3-non-cocycle", "default"): "4296005a9eeaab93907d121d109153a63d2b11f1e0bcf23149562c048390a864",
    ("certify-pgmap", "zero-bracket-non-cojacobi", "default"): "3c28d0fd356e2df8b7bc7b24fa743458fa3981d0c36ae8197e0d401b3b0ad2fc",
    ("characteristic-identity", "gl2-perturbed", "default"): "cc4eedaf019f05605e19c59ee96a6396aa5a6a3d5ee5e1e9bffd9cd8b3b235a2",
    ("characteristic-identity", "gl2-perturbed", "rational-box-samples-13"): "cc4eedaf019f05605e19c59ee96a6396aa5a6a3d5ee5e1e9bffd9cd8b3b235a2",
    ("characteristic-identity", "gl2-perturbed", "samples-7-seed-3"): "cc4eedaf019f05605e19c59ee96a6396aa5a6a3d5ee5e1e9bffd9cd8b3b235a2",
    ("characteristic-identity", "gl2-perturbed", "wide-box-seed-5"): "cc4eedaf019f05605e19c59ee96a6396aa5a6a3d5ee5e1e9bffd9cd8b3b235a2",
    ("characteristic-identity", "gl3-perturbed", "default"): "a23cee038b5b509fe1aa7dd21097dd63630cc98c5c3d27ff4e8ffffb9c99a895",
    ("characteristic-identity", "gl3-perturbed", "rational-box-samples-13"): "a23cee038b5b509fe1aa7dd21097dd63630cc98c5c3d27ff4e8ffffb9c99a895",
    ("characteristic-identity", "gl3-perturbed", "samples-7-seed-3"): "a23cee038b5b509fe1aa7dd21097dd63630cc98c5c3d27ff4e8ffffb9c99a895",
    ("characteristic-identity", "gl3-perturbed", "wide-box-seed-5"): "a23cee038b5b509fe1aa7dd21097dd63630cc98c5c3d27ff4e8ffffb9c99a895",
    ("check-poisson", "gl3-non-poisson", "default"): "2276d9f4a0331e9c66748981b7ea88e334045e7d72fc5d2b855d5ebd4bba2dec",
    ("check-poisson", "gl3-non-poisson", "rational-box-samples-13"): "301a1d998b9dc7e8b3f914646632b5fc6649b7369b6beabec617386a4fd70624",
    ("check-poisson", "gl3-non-poisson", "samples-7-seed-3"): "8172885872d4208b21e4e84f7db6d5255c03634ded9a41385ad4d926a2a55a92",
    ("check-poisson", "gl3-non-poisson", "wide-box-seed-5"): "98b5a7616af8a602828812b35a6ab9d8619b0e6ae9b9b214c8de2664c11c3472",
    ("check-poisson", "rational-residual", "default"): "68083eeca1f01723b2be39e5d09cf32b3e327b1d96829bf4d96a24bb9fcec03a",
    ("check-poisson", "rational-residual", "samples-7-seed-3"): "4bf67cf463efa0121af27b75752dd32c77de727bc7b56a9efff1d0c51c495c7c",
    ("symplectic", "non-symplectic-action", "default"): "1b63b48e9a14f26a45a0db616dc0b5fc8ca09c249fd39df2281d343842a84b6a",
    ("symplectic", "non-symplectic-action", "samples-7-seed-3"): "1b63b48e9a14f26a45a0db616dc0b5fc8ca09c249fd39df2281d343842a84b6a",
    ("tangent-generator", "gl2-perturbed", "default"): "873fd9db8a202f3846aedd6f5baa606243c9c7eea6e118a976245cdd04c05aff",
    ("tangent-generator", "gl2-perturbed", "samples-7-seed-3"): "873fd9db8a202f3846aedd6f5baa606243c9c7eea6e118a976245cdd04c05aff",
    ("tangent-generator", "gl3-perturbed", "default"): "51a8d0828dc3d9c0d75024b59919891ddfa23312614001d3277285dd8c3f5186",
    ("tangent-generator", "gl3-perturbed", "samples-7-seed-3"): "51a8d0828dc3d9c0d75024b59919891ddfa23312614001d3277285dd8c3f5186",
    # refusal and skip routes of the lifted checks
    ("all", "kernel-not-spanned", "default"): "196402ae5448e5c03a0917871d32631bf1e376d10a0408e7026704144153f155",
    ("all", "kernel-not-spanned", "samples-7-seed-3"): "bb43f8e83f34f380d52201cb6f909a4e30a436b93d7c2e5cd3621247434f8d7d",
    ("all", "non-poisson-map", "default"): "9ad42bd632ef97c08e99dd497493769662f71a128e03062079626a2db987ed01",
    ("all", "non-poisson-map", "samples-7-seed-3"): "c8162a90f338cf35776f67f6c1d118cb7b7b678e0de042acec20974e3294b460",
    ("all", "non-symplectic-action", "default"): "804cd7535e61907e2cc7f2f8eb6511840fcf23184ab9a5e11c381ad8e141340a",
    ("all", "non-symplectic-action", "samples-7-seed-3"): "804cd7535e61907e2cc7f2f8eb6511840fcf23184ab9a5e11c381ad8e141340a",
    ("all", "so3-bad-bialgebra", "default"): "affd5d3890f9a8848aee36e499def3061aa477525e21d6fc00ed5216bf6fbd19",
    ("all", "so3-bad-bialgebra", "samples-7-seed-3"): "affd5d3890f9a8848aee36e499def3061aa477525e21d6fc00ed5216bf6fbd19",
    ("certify-pgmap", "non-poisson-map", "default"): "21ae380e6cea51aff7ce188bcc0e143de5cc33b8e869cb59e5140b406a909f01",
    ("certify-pgmap", "non-poisson-map", "samples-7-seed-3"): "21ae380e6cea51aff7ce188bcc0e143de5cc33b8e869cb59e5140b406a909f01",
    ("characteristic-identity", "non-poisson-map", "default"): "dec9a17329f3852d68bf3533448519cc050dbb2bc6be9476a12323abb0ebce32",
    ("characteristic-identity", "non-poisson-map", "samples-7-seed-3"): "dec9a17329f3852d68bf3533448519cc050dbb2bc6be9476a12323abb0ebce32",
    ("characteristic-identity", "so3-bad-bialgebra", "default"): "4a778ecb8d2eff675c15111695798e275da877a0b9dd7a30e30c07cec32973f6",
    ("characteristic-identity", "so3-bad-bialgebra", "samples-7-seed-3"): "4a778ecb8d2eff675c15111695798e275da877a0b9dd7a30e30c07cec32973f6",
    ("tangent-generator", "non-poisson-map", "default"): "cfc1f3f78deefdd56ae2f950260f4f83a7ca21402602945c179725a41b03d67e",
    ("tangent-generator", "non-poisson-map", "samples-7-seed-3"): "cfc1f3f78deefdd56ae2f950260f4f83a7ca21402602945c179725a41b03d67e",
    ("tangent-generator", "so3-bad-bialgebra", "default"): "4ed17f73a9aeb2dcbc5467cbbab7d87e062d2c9e3ecdc5b70c2cc9359b28ee7f",
    ("tangent-generator", "so3-bad-bialgebra", "samples-7-seed-3"): "4ed17f73a9aeb2dcbc5467cbbab7d87e062d2c9e3ecdc5b70c2cc9359b28ee7f",
    # the cubic variants of conftest.QUADRATIC, whose map or momentum fails
    ("all", "cubic-momentum", "default"): "1a1cacf79798f42968d07e001e14aaac1f0126daed6053d82a615c88a3947d41",
    ("all", "cubic-momentum", "rational-box-samples-13"): "40c1d189ebe2881677db45e65127fe9fe63a4840a86258f9c4d1c5725412c64d",
    ("all", "cubic-pgmap", "default"): "cc1216869db0a39c50e5f171e6566077499692d1d6a4c6987ecdcfb5f4f5dbbc",
    ("all", "cubic-pgmap", "rational-box-samples-13"): "cc1216869db0a39c50e5f171e6566077499692d1d6a4c6987ecdcfb5f4f5dbbc",
    ("all", "cubic-poisson", "default"): "db5ff9dbc08985ad0d09fbab530db6dba15cc7e747d755508b802e950610f31e",
    ("all", "cubic-poisson", "rational-box-samples-13"): "5330a3d3d37eb8056b782dac355b06b1ad60812a67713ec9be98714b7a947e18",
}

_REFUSED = ("fail", "fail", "fail", "pass", "pass")  # check-poisson, lift, verify-lift, lemma, oracle-fd

# (command, problem, flags) -> (verdicts, digest); every run exits 1
NON_POISSON_DIGESTS = {
    ("lift", "gl3-non-poisson", "default"): (("fail",), "ae9be80b777289dcb6b1998103605a05c90f6c840749537da324169a6863e5c0"),
    ("lift", "gl3-non-poisson", "samples-7-seed-3"): (("fail",), "ae9be80b777289dcb6b1998103605a05c90f6c840749537da324169a6863e5c0"),
    ("lift", "xy-yz-non-poisson", "default"): (("fail",), "ae9be80b777289dcb6b1998103605a05c90f6c840749537da324169a6863e5c0"),
    ("lift", "xy-yz-non-poisson", "samples-7-seed-3"): (("fail",), "ae9be80b777289dcb6b1998103605a05c90f6c840749537da324169a6863e5c0"),
    ("verify-lift", "gl3-non-poisson", "default"): (("fail",), "3823552fba83b160e99ab5253747673335fd0ae7b87ccf42010bacdf8f30b068"),
    ("verify-lift", "gl3-non-poisson", "samples-7-seed-3"): (("fail",), "3823552fba83b160e99ab5253747673335fd0ae7b87ccf42010bacdf8f30b068"),
    ("verify-lift", "xy-yz-non-poisson", "default"): (("fail",), "3823552fba83b160e99ab5253747673335fd0ae7b87ccf42010bacdf8f30b068"),
    ("verify-lift", "xy-yz-non-poisson", "samples-7-seed-3"): (("fail",), "3823552fba83b160e99ab5253747673335fd0ae7b87ccf42010bacdf8f30b068"),
    ("all", "gl3-non-poisson", "default"): (_REFUSED, "36303c1d87b8d4b35465ed7bcf3791b4f87673ae0b67ea0e5339913416dfc9b4"),
    ("all", "gl3-non-poisson", "samples-7-seed-3"): (_REFUSED, "a6a1bbeaf44f32df020c43cb5a2ef932920cb6554074d3e0884bdd4e074ca893"),
    ("all", "xy-yz-non-poisson", "default"): (_REFUSED, "d6ad834a55105ee5b77e36402e24488a4bd3605b4d7b65b8fd969bd87c5af44e"),
    ("all", "xy-yz-non-poisson", "samples-7-seed-3"): (_REFUSED, "9f74f8c15994cb16da46ea20ef8356119f8475a3d6ffc1b4d54032de673fb505"),
}

# (command, problem, flags) -> (exit code, digest): level-set tangency runs
# that do not pass, and one with two momentum components
LEVEL_SET_DIGESTS = {
    ("hamiltonian", "kernel-not-spanned", "default"): (1, "d2659a4b55ddf7557abb0002f00ed629d15e032d5f6ed42948f5d8e2533cf4de"),
    ("hamiltonian", "kernel-not-spanned", "rational-box-samples-13"): (1, "1543876c57de3c010a9e3d37819b5fea6761975c597b16d42369682c6ab83c41"),
    ("hamiltonian", "rank-deficient", "default"): (0, "f742c5ce4442d1c888b0cbdadd1610146d66c87195d95ec07f9db31803bb5927"),
    ("hamiltonian", "rank-deficient", "rational-box-samples-13"): (0, "570958956af8fd23b5a616cee5c68390285b0247e05ceff3f3534d1689c098cc"),
    ("hamiltonian", "two-J", "default"): (0, "08064a8cc159cd567e3f82e300f8752d80221c2e7da9a2e48a92ebe223f9a7e3"),
    ("hamiltonian", "two-J", "rational-box-samples-13"): (0, "08064a8cc159cd567e3f82e300f8752d80221c2e7da9a2e48a92ebe223f9a7e3"),
}

# (kernel, problem) -> (exit code, digest): ``verify-lemma`` under a wrong
# complete-lift kernel (conftest.use_wrong_lift_kernel)
LEMMA_DIGESTS = {
    ("doubled", "catalog:aff1-cobracket"): (1, "9cc772fb95f5329f51d271b5531c59991e217793f57d419aeed76379ed7a59bc"),
    ("doubled", "catalog:so3-coadjoint"): (1, "607513969cd6289419ab5ae16b3cddf5578e84e17d5156e942a6ba4db7ff4c0f"),
    ("doubled", "gl3"): (1, "c8f48c1138e391c2363ab4fe16442260e6b958bcf141803ed53e0d7a2846a1f7"),
    ("negated", "catalog:aff1-cobracket"): (1, "f869d1b4d2e9cbee2bb1f03b006e947570d7a075265addedf6b6001099e45538"),
    ("negated", "catalog:so3-coadjoint"): (1, "6d496d573adc372f6839d34745d1dd467d288c18d6d08b628b50d7f99b316e72"),
    ("negated", "gl3"): (1, "987fbd23171a0cf268c285bfa09ecd942fccf6ecaa7324259627d500d28717f3"),
}

_LEVEL_SET_AT_ORIGIN = "levelset {\n  params: s\n  map: 0, 0\n}\n"
_SO3_MANIFOLD = "manifold {\n  coords: x, y, z\n  poisson: z*e_x^e_y - y*e_x^e_z + x*e_y^e_z\n}\n"
_SO3_PGMAP = "pgmap { e1 = dx; e2 = dy; e3 = dz }\n"

# problems of FAILING_DIGESTS, NON_POISSON_DIGESTS and LEVEL_SET_DIGESTS
# that are not gl(n) problems
TEXTS = {
    "xy-yz-non-poisson": "manifold {\n  coords: x, y, z\n  poisson: x*e_x^e_y + y*e_y^e_z\n}\n",
    "rational-residual": "manifold {\n  coords: x, y, z\n  poisson: 1/2*x*e_x^e_y + 1/3*y*e_y^e_z\n}\n",
    # refusals: a bialgebra failing Jacobi, a non-Poisson pi, a non-symplectic action
    "so3-bad-bialgebra": (
        _SO3_MANIFOLD + "bialgebra {\n  basis: e1, e2, e3\n  bracket { [e1,e2] = e3; [e1,e3] = e1 }\n}\n"
        + _SO3_PGMAP
    ),
    # failing structure checks: four cocycle residuals in insertion order and
    # a co-Jacobi failure; a zero bracket with a cobracket that fails
    # co-Jacobi; bracket rows out of basis order that fail Jacobi
    "so3-non-cocycle": (
        _SO3_MANIFOLD + "bialgebra {\n  basis: e1, e2, e3\n"
        "  bracket { [e2,e3] = e1; [e1,e2] = e3; [e3,e1] = e2 }\n"
        "  cocycle { d(e2) = e3^e1; d(e1) = e1^e2 + e3^e2 }\n}\n" + _SO3_PGMAP
    ),
    "zero-bracket-non-cojacobi": (
        _SO3_MANIFOLD + "bialgebra {\n  basis: e1, e2, e3\n"
        "  cocycle { d(e3) = e1^e2; d(e1) = e1^e3 }\n}\n" + _SO3_PGMAP
    ),
    "non-jacobi-rows-out-of-order": (
        _SO3_MANIFOLD + "bialgebra {\n  basis: e1, e2, e3\n"
        "  bracket { [e1,e2] = e3 + e1 - e2; [e1,e3] = 2 e3 + e2 }\n}\n" + _SO3_PGMAP
    ),
    "non-poisson-map": (
        "manifold {\n  coords: x, y, z\n  poisson: z*e_x^e_y + x*e_x^e_z\n}\n"
        "bialgebra {\n  basis: e1, e2, e3\n  bracket { [e1,e2] = e3; [e2,e3] = e1; [e3,e1] = e2 }\n}\n"
        "pgmap { e1 = dx; e2 = dy; e3 = dz }\n"
    ),
    "non-symplectic-action": (
        "manifold { coords: q, p; symplectic: dq^dp }\nbialgebra { basis: e1 }\naction { e1 = q*e_q }\n"
    ),
    # dJ = dp has kernel e_q, which a constant map does not span: fail
    "kernel-not-spanned": (
        "manifold {\n  coords: q, p\n  poisson: e_q^e_p\n}\nbialgebra { basis: e1 }\n"
        "momentum { e1 = p }\n" + _LEVEL_SET_AT_ORIGIN
    ),
    # dJ vanishes at the origin: informative
    "rank-deficient": (
        "manifold {\n  coords: q, p\n  poisson: e_q^e_p\n}\nbialgebra { basis: e1 }\n"
        "momentum { e1 = 1/2*q^2 + 1/2*p^2 }\n" + _LEVEL_SET_AT_ORIGIN
    ),
    # two components with rational values and a non-affine map: pass
    "two-J": (
        "manifold {\n  coords: a, b, c, d\n  poisson: e_a^e_c + e_b^e_d\n}\n"
        "bialgebra { basis: e1, e2 }\nmomentum { e1 = c - 1/3; e2 = d*(a + 1) }\n"
        "levelset {\n  params: s, t\n  map: s^2 - t, 2/5*t, 1/3, 0\n}\n"
    ),
    **{f"cubic-{name}": QUADRATIC.replace(old, new) for name, (old, new) in CUBIC_EDITS.items()},
}


def _problem_arg(key: str, tmp_path: Path) -> str:
    kind, _, name = key.partition(":")
    if kind == "catalog":
        return name
    if kind == "valid":
        return str(VALID / name)
    if key in TEXTS:
        text = TEXTS[key]
    else:
        n, _, variant = key[2:].partition("-")
        text = gl_problem(int(n), non_poisson=variant == "non-poisson", perturb_map=variant == "perturbed")
    path = tmp_path / f"{key}.pf"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run(args: list[str], key: str, flags: str, tmp_path: Path, capsys) -> tuple[int, str, bytes]:
    report = tmp_path / "report.txt"
    code = main([*args, _problem_arg(key, tmp_path), "--report", str(report), *FLAGS[flags]])
    return code, capsys.readouterr().out, report.read_bytes()


def _digest(args: list[str], key: str, flags: str, tmp_path: Path, capsys) -> tuple[int, str]:
    code, stdout, report = _run(args, key, flags, tmp_path, capsys)
    return code, hashlib.sha256(stdout.encode("utf-8") + report).hexdigest()


@pytest.mark.parametrize("key,flags", sorted(DIGESTS))
def test_all_output_matches_recorded_digest(key, flags, tmp_path, capsys):
    assert _digest(["all"], key, flags, tmp_path, capsys) == (0, DIGESTS[(key, flags)])


@pytest.mark.parametrize("command,key,flags", sorted(FAILING_DIGESTS))
def test_failing_output_matches_recorded_digest(command, key, flags, tmp_path, capsys):
    assert _digest([command], key, flags, tmp_path, capsys) == (1, FAILING_DIGESTS[(command, key, flags)])


@pytest.mark.parametrize("command,key,flags", sorted(NON_POISSON_DIGESTS))
def test_non_poisson_output_matches_recorded_digest(command, key, flags, tmp_path, capsys):
    verdicts, digest = NON_POISSON_DIGESTS[(command, key, flags)]
    code, stdout, report = _run([command], key, flags, tmp_path, capsys)
    assert code == 1
    assert tuple(rep.verdict for rep in parse_reports(report.decode("utf-8"))) == verdicts
    assert "Traceback" not in stdout
    assert hashlib.sha256(stdout.encode("utf-8") + report).hexdigest() == digest


@pytest.mark.parametrize("command,key,flags", sorted(LEVEL_SET_DIGESTS))
def test_level_set_output_matches_recorded_digest(command, key, flags, tmp_path, capsys):
    assert _digest([command], key, flags, tmp_path, capsys) == LEVEL_SET_DIGESTS[(command, key, flags)]


@pytest.mark.parametrize("kernel,key", sorted(LEMMA_DIGESTS))
def test_failing_lemma_output_matches_recorded_digest(kernel, key, tmp_path, capsys, monkeypatch):
    use_wrong_lift_kernel(monkeypatch, kernel)
    assert _digest(["verify-lemma"], key, "default", tmp_path, capsys) == LEMMA_DIGESTS[(kernel, key)]


def test_digests_cover_every_valid_file():
    names = {key.partition(":")[2] for key, _ in DIGESTS if key.startswith("valid:")}
    assert names == {path.name for path in VALID.glob("*.pf")}
