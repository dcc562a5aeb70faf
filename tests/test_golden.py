"""Golden digests of the CNOT schedules: a builder change that moves any pulse fails here.

The ``-canceled`` families are the same schedules passed through
``cancel_negatives``, so a change to cancellation that moves a pulse fails too.
Each digest is the sha256 of ``json.dumps(schedule_to_json(schedule), sort_keys=True)``.
The builders use Python float arithmetic only, so the digests do not depend on
the platform's linear-algebra libraries.
"""

import hashlib
import json

import pytest

from exgates.trotter import cancel_negatives, cnot_spin1, cnot_spin_independent, schedule_to_json

_BUILDERS = {
    "independent-0": lambda n: cnot_spin_independent(n, order=0),
    "independent-1": lambda n: cnot_spin_independent(n, order=1),
    "spin1": cnot_spin1,
    "independent-0-canceled": lambda n: cancel_negatives(cnot_spin_independent(n, order=0)),
    "independent-1-canceled": lambda n: cancel_negatives(cnot_spin_independent(n, order=1)),
    "spin1-canceled": lambda n: cancel_negatives(cnot_spin1(n)),
}

_DIGESTS = {
    "independent-0": {
        1: "b79610f539cd1edd7617af0a52d3c2ae9152d5d45c7651d61b28290952372156",
        2: "eea4350f33de31869d3fd4685e94afb3aaf3b41bc868c9c982e1e8b11c13345d",
        3: "1b01939ce3094cfac51e16c6428bbf0be1efcd71702af2aeaececf83546f6422",
        4: "b1f4b139c3d52933140aadbdb213789f400d613a73f7242ca300aeefe2caa029",
        5: "6d92b07be0d6996647ea257c6c212ef107cfb57bcd49c46d73e13b3aa30e09e9",
        6: "5912e84e4bae5ec5380f8db992734c7e5ad482885171321b74ac5a1f83acb054",
        7: "c34e0fe8ea385590d96e5eb7d3394e66c120a204bf8983905f9f8b3ab719c4a2",
        8: "8875226691c7b8a80d88cfc10e7805b57bb058af6991e7fdc4bdf9d39b2fd8b3",
        9: "07fa4053e5f0e6f0fcc386a4f146a733dc80e16abdcdd918d408f6825d0d870c",
        10: "b4642bac9b5e7c1f39d18252b39f168d72c89e63b5f4238131c0db44f4ec478d",
        11: "41fccb18c9bcbf1f094dd6464769c8ba4401c1b356fa1059127082d7f4ede15e",
        12: "e8e8fa30a6b7386245efaad85df50c4b3df6727bfaa28df449dd55b785d22445",
        50: "d8d40308be5447b86b6e790288bc896fe4a143c0fe309e054c0bae5e64d4b1e2",
        200: "34e6f005c4f344b30c0d7e44d4358d44e483dc5556929c7ee20c45ab89d2a621",
    },
    "independent-1": {
        1: "b75c65c2ddcba8120c4d4ac5a88242cf8a4e572f029a89dca7e9c62db902f6bd",
        2: "eb87bee72869481d8811f2ed3b5185e2ad4e73ddf6eef0e5d6a003ebede65614",
        3: "961c237aa29d1334ebb9d727a6ba9248d65819aad579634ad76e0f770dbd1a26",
        4: "9ccb311dea61b60de5b7b09bc42a919e49c76d103fd7f4d7da02dfc7c5125983",
        5: "71f6ce1e9a27d5e877662a635092be12de1fab4f6bc6781c9057f696920bf427",
        6: "794657a6c9cf284b92c1ac9f9c6d6df5551262b734ccd9488365c7668e207681",
        7: "deeff17c2afc20266d7ef1c8e7a41873dd8e724e5c2e37aea41502eeaa6134bf",
        8: "5585a1c2ae5252ed9d55f1ef3520c7234e9bb549fe05786618ace356c769d679",
        9: "7974061adbb6134dbfc898cbdfb185a60b90b14a2ce006dcf03bea8c23b835d4",
        10: "e0ef0e84e4027637b7fb207e7fac3ad708318421eb05b7640df628e475bd4d85",
        11: "758b97a8b0c97825ac2921f3875732035ec80eac9dd172ad6bc2e73490e816f2",
        12: "0f18c88e784f6330c6ad440145b8b47c812d1f54aa8efeb22bb35354bddb819f",
        50: "166e25e7606a7d2cfd696d8c89711c848637987f9470a360ea9adb45aa21cbc1",
        200: "02462be1e267cd9f5fa2905c2931bc7e6ff01aba4fa1d3a14fd183b7adad1660",
    },
    "spin1": {
        1: "fda229bd35879f9d388f330f468f4219197190581208f346d02f927a9eca4032",
        2: "48c3e4eb0b1660931aeeb2bb32c2f8b0089e1ec704da7a879e73f8d1d10c3671",
        3: "ca70fde5ba61d5ca1551812194f5f849655863451d08ac16608b2d2bf4638335",
        4: "3e17c5df27cbc29b8843e5afc8468d77a1ba2f9a3eba330dbc2c0e8f6bb3e029",
        5: "1018cb58389608f4f8eafb2df3ca5a6791a9ed4d685dcf3349a183e180e35783",
        6: "9fe946de5c6915fa35bc28bec66108212e3ece1e64ec4308fbf14f184504f712",
        7: "2de45715ed8ab4d67dec63110324a228335a33d74d916a1b5d5ebad2bb575358",
        8: "13606dabefa575a8a2e9652d3fa77984a7e2dcfb9437aa85c952e314f4f5f0ff",
        9: "ab368a252ae8bfe3fdf716c75cf2f126bfb3b708c84da3314d42e2262fcc2423",
        10: "1b0a6ab44be6fa1898cefe44bb5be24c9c0e53fa1efdf8016c24284f87737390",
        11: "f3c17ec5b4c14d3522d1e1ea73499f42b7b68d1e317a5ec731533267accf3d11",
        12: "263b583b2825ea6dc30c7725ff90b15fa10af126cd958e6f9bc3fcb7e907828e",
        50: "99297f0b3bd3516d63e0e195c4f5c3a0f56f52802b665c8f595dad369929eb16",
        200: "0d926a4b9bd69decaaa8a9185d69a37b795c0b466dedb8b6c111a60ae6ac82a9",
    },
    "independent-0-canceled": {
        1: "ed52e08f80c462a0e93a4f4d425f598be7f22387037a356018fa8416efc273c2",
        2: "fa351e81da6c96d6a3e6e3313a89326a6483012de31019cee7c9d4ae5e0cf0ee",
        3: "6d09f49ac6970965b93aaed2b0553b621ab1b984ff67f893a43d1ee36a4b1fb2",
        4: "6415c04be20dbda719aba2ed4ef844151d492f6034029c93da8a07e15406bee2",
        5: "c25163369c646e458f3645a315d42038548bafc24bef0aafdafbc8816673ffe9",
        6: "7f72fbec3e12b180670c41fbb92270c9df8be1defdaf52a6df8f64b14a95df35",
        7: "dd233ada79ebb5cff12d53b0662b92110ba662337da563a422e9965894c76559",
        8: "5dfe8dfb0f5a86eb2bd5cd54d63e22e1e261bb05868531e8b63c30c3433a6249",
        9: "619f3253d7a361d4af68c3c7eea45839010cb76b635bd0e7950343160ab29cfb",
        10: "79ca70819d993a0234460a2cab82352cb7e8f12cf6590d8fc2d558a1fd82a703",
        11: "280f701118a1b133a958ca4ed421a4c63653b5983e7e414ba02d16be42d0a52d",
        12: "542ff3656036a12cb811ebdde642cff5acb3ba443995c9a23edd7b05f7299f35",
        50: "0e0c86464c6c1ab149751ed1d7e4b51055c35c8b85cd933d09a643d1d8995480",
        200: "a769f4536685f93f6398e4b49030521736fe723d271a5ad4fc598b5b8f03850b",
    },
    "independent-1-canceled": {
        1: "d5a959f93f3460cb261a202631e5aafea59c4e8346b0847eebd134c7962d058b",
        2: "aef70a1641d2d7176e50808e5b5e87051089805e681773034866da6516655890",
        3: "3f7b6273db615234a460e7b9ba23aa96876a669e2ede494aadf5c7803d2f8281",
        4: "ac13d2442687817976b06ebf23cabe640622048263a79cfac8de0c30efeba833",
        5: "67247b3557fa308621ef855ce10c20eee2a0abba06bff65751b4e93eaeaf3e85",
        6: "d5db74879e2da5ac795ded3214c5dd585b12282582b508476890bc8ab2b95127",
        7: "8102f3cb9e89c34283ef7463902e89e50df84c0e278eb6bc6f59a3240055fdb2",
        8: "ef08ac16eaf5e5253c60f61c88450431f2a9a77022fee90cfdb33c5bb421fd04",
        9: "3f5c5be62f53b81649d453235b386da8c5231770a43d44c808fbdbf247e7fafa",
        10: "e0d5bb68a579730f9a78e68d7321f7a100190b7f26523caab9486e953f6d8268",
        11: "451c3db27bc648422664e1367dae7ae96d79267b24b7bc23338eec23dc5f00e9",
        12: "a4ba99a9cd3009ca55d2e26fa922a2f0ab8394dc6b9680e79a9cf3fdbf6e64c4",
        50: "80c08b1703bfc98c265d3b76947c26913cc14d0a2de61be5bfb3c5f2b53d96b7",
        200: "8d5486fcbe48997868b3d8ef99f2ffef0988f730c297e57a98beb221b283d117",
    },
    "spin1-canceled": {
        1: "b555ae470960d74b02625f9e2d8ebdd6deeb793d9d94b8542d42de65e8b4b0c2",
        2: "4baa82523145ff7ce3ac23f4a170ccdf6537bec5f3dcbde4f958661ff8285b39",
        3: "3ae9ac4a7d3e393ddf25e7ca81ab85c806362430339adae158f12820154f6561",
        4: "cbb7904472874330628ed5d6c17c3809fcccf9c5488943dd9304227470926ccb",
        5: "5c06b2873a10a642c6053f8c7b58b4699f8959ece0691a78c4221be36f3b19d3",
        6: "b322e2d2dd2667103aad924516f0127d11c89be0e7952a1f0243fd131a23ffb2",
        7: "e1a861c10417c90d51bcffe3b895c8cb9f3166d0618a1bdda7cf8917ba368fa7",
        8: "97ef59a51f776428929096d4664c8cb7bfa1121250877769e14e6841c14e49cc",
        9: "05454978adc9ad5704d157d03ee432a062b1c2221a7c487a28f0c4231028d3b0",
        10: "10efaa9fe19a50197018a3e217cde07303dfa030585a6e0f0245202ed7c3a84f",
        11: "4e4ee303177c8e8eae2728426c22be08f98e95757ff89e96e51461ced5bc9b42",
        12: "ade547b1b25ad12526e3be42535e5ab57125e9bc76e7e437bb9f5fee47e89441",
        50: "cfbea7cd33180397d9f881cf5c509a7624bfe5ed050ab2dd6acd869f28d68821",
        200: "74b480752202f781eb033bd6b741918e96a67bb6b79100ebcc397863acb9b5b8",
    },
}


@pytest.mark.parametrize(
    "family,n", [(family, n) for family, digests in _DIGESTS.items() for n in digests]
)
def test_schedule_json_matches_golden_digest(family, n):
    text = json.dumps(schedule_to_json(_BUILDERS[family](n)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _DIGESTS[family][n]
